package sched

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// verifying switches on the maintained ≡ polled differential in every Step.
var verifying atomic.Bool

// VerifyRunnable switches the maintained ≡ polled differential on or off for
// every runtime of the process and returns the previous setting. While it is
// on, each Step re-polls every actor's runnability after refreshing the woken
// ones, the way a runtime without wakes would, and panics when the two sets
// differ: some step changed what a gate reads without waking its actor. It is
// a test hook. Switching it on moves no schedule: a re-read of an actor that
// was not woken answers as its last read did, or the check fails.
func VerifyRunnable(on bool) bool { return verifying.Swap(on) }

// verify is the differential's check: the full re-poll the runtime replaced.
func (rt *Runtime) verify() {
	var polled []int
	for id := range rt.in {
		if rt.canRun(id) {
			polled = append(polled, id)
		}
	}
	if !slices.Equal(polled, rt.runnable) {
		panic(fmt.Sprintf("sched: step %d: maintained runnable set %v, a full re-poll finds %v: a step changed what a gate reads without waking its actor",
			rt.steps, rt.runnable, polled))
	}
}

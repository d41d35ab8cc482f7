package sched

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// Panic values of TestChainPanicsSurface; an aux step panics with
// errAuxBoom.
var (
	errBodyBoom   = errors.New("body boom")
	errPolicyBoom = errors.New("policy boom")
)

// chainProcs is the process count of the chain tests: processes 0, 1 and 2
// wait on the chain below process 3 after the first four steps.
const chainProcs = 4

// chainOrder runs chainProcs pausers under Random(seed) for steps steps and
// returns the actor of each step and the round trips the run took.
func chainOrder(rt *Runtime, seed int64, steps int) ([]int, int) {
	var order []int
	rt.SetPolicy(Random(seed))
	for i := 0; i < chainProcs; i++ {
		rt.Spawn(i, func(p *Proc) {
			for {
				order = append(order, i)
				p.Pause()
			}
		})
	}
	rt.Run(steps)
	return order, rt.RoundTrips()
}

// TestChainPanicsSurface builds a chain of resumers three processes deep —
// each of processes 0, 1 and 2 hands its step to the next — and panics on
// top of it: in process 3's body, in the Policy choosing after process 3's
// step, and in an aux step process 3 runs inline. The panic must unwind
// every body on the chain and surface from Run and RunWith with its original
// value. Afterwards Reset and a fresh run replay a fresh runtime's schedule
// and round trips exactly, and Stop leaves no goroutine behind.
func TestChainPanicsSurface(t *testing.T) {
	base := runtime.NumGoroutine()
	fresh := New(chainProcs, nil)
	wantOrder, wantTrips := chainOrder(fresh, 5, 300)
	fresh.Stop()
	for _, src := range []struct {
		name string
		want error
	}{{"body", errBodyBoom}, {"policy", errPolicyBoom}, {"aux", errAuxBoom}} {
		for _, hooked := range []bool{false, true} {
			name := fmt.Sprintf("%s/hooked=%t", src.name, hooked)
			rt := New(chainProcs, nil)
			aux := rt.AddAux(func() bool { return true }, func() { panic(errAuxBoom) })
			rt.SetPolicy(PolicyFunc(func(runnable []int, step int) int {
				if step < chainProcs {
					return step
				}
				if src.name == "policy" {
					panic(errPolicyBoom)
				}
				return aux
			}))
			var unwound [chainProcs]bool
			below := -1 // the processes waiting on the chain when process 3 starts
			for i := 0; i < chainProcs; i++ {
				rt.Spawn(i, func(p *Proc) {
					defer func() { unwound[i] = true }()
					if i == chainProcs-1 {
						below = 0
						for _, q := range rt.procs[:i] {
							if q.calling {
								below++
							}
						}
						if src.name == "body" {
							panic(errBodyBoom)
						}
					}
					pauser(p)
				})
			}
			got := func() (got any) {
				defer func() { got = recover() }()
				if hooked {
					rt.RunWith(10, func(int) {})
				} else {
					rt.Run(10)
				}
				return nil
			}()
			if got != src.want {
				t.Fatalf("%s: surfaced %v, want %v", name, got, src.want)
			}
			if below != chainProcs-1 {
				t.Fatalf("%s: %d processes waited on the chain, want %d", name, below, chainProcs-1)
			}
			if unwound != [chainProcs]bool{true, true, true, true} {
				t.Errorf("%s: bodies unwound %v, want every one", name, unwound)
			}
			rt.Reset(chainProcs, nil)
			order, trips := chainOrder(rt, 5, 300)
			if !slices.Equal(order, wantOrder) || trips != wantTrips {
				t.Errorf("%s: reset runtime ran %v in %d round trips, a fresh one %v in %d", name, order, trips, wantOrder, wantTrips)
			}
			rt.Stop()
		}
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Stop, %d before the runtimes existed", got, base)
	}
}

// TestResumedProcessExits has process 0 resume process 1, whose body then
// returns: process 0 wakes it and makes the next choice on its own
// coroutine, so the run goes on without a trip through Run.
func TestResumedProcessExits(t *testing.T) {
	rt := New(2, Script([]int{0, 1}, RoundRobin()))
	defer rt.Stop()
	var order []int
	resumedBy := -1
	rt.Spawn(0, func(p *Proc) {
		for {
			order = append(order, 0)
			p.Pause()
		}
	})
	rt.Spawn(1, func(p *Proc) {
		order = append(order, 1)
		if rt.procs[0].calling {
			resumedBy = 0
		}
	})
	if got := rt.Run(6); got != 6 {
		t.Fatalf("ran %d steps, want 6", got)
	}
	if resumedBy != 0 {
		t.Fatal("process 1 was not resumed by process 0")
	}
	if want := []int{0, 1, 0, 0, 0, 0}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	if !rt.Exited(1) {
		t.Fatal("process 1 did not exit")
	}
	// Run resumed process 0; process 0 resumed process 1, and its steps
	// after 1's exit cost no switch.
	if trips := rt.RoundTrips(); trips != 2 {
		t.Fatalf("%d round trips, want 2", trips)
	}
}

// TestHandOverRoundTrips pins the cost of a hand-over: three free-running
// processes under Random take at most 0.6 coroutine round trips per step
// that passes control to another process. A hand-over through the caller
// takes one.
func TestHandOverRoundTrips(t *testing.T) {
	rt := New(3, Random(1))
	defer rt.Stop()
	var order []int
	for i := 0; i < 3; i++ {
		rt.Spawn(i, func(p *Proc) {
			for {
				order = append(order, i)
				p.Pause()
			}
		})
	}
	const steps = 30_000
	if got := rt.Run(steps); got != steps {
		t.Fatalf("ran %d steps, want %d", got, steps)
	}
	handOvers := 0
	for s := 1; s < len(order); s++ {
		if order[s] != order[s-1] {
			handOvers++
		}
	}
	perHandOver := float64(rt.RoundTrips()) / float64(handOvers)
	t.Logf("%d round trips for %d hand-overs in %d steps: %.3f per hand-over", rt.RoundTrips(), handOvers, steps, perHandOver)
	if perHandOver > 0.6 {
		t.Fatalf("%.3f round trips per hand-over, want at most 0.6", perHandOver)
	}
}

package sched

import (
	"errors"
	"runtime"
	"testing"
)

// runPanicking steps a runtime whose process 0 panics at its second step and
// returns the value that surfaced from Step.
func runPanicking(rt *Runtime) (got any) {
	rt.Spawn(0, func(p *Proc) {
		p.Pause()
		panic("boom")
	})
	rt.Spawn(1, func(p *Proc) {
		for {
			p.Pause()
		}
	})
	defer func() { got = recover() }()
	rt.Run(10)
	return nil
}

// TestBodyPanicSurfacesFromStep pins the coroutine handoff's panic path: a
// panic in a process body propagates out of the Step that ran it, on the
// caller's goroutine, and the runtime can afterwards be stopped — or reset
// and reused, the panicked process getting a fresh coroutine.
func TestBodyPanicSurfacesFromStep(t *testing.T) {
	rt := New(2, RoundRobin())
	if got := runPanicking(rt); got != "boom" {
		t.Fatalf("Step surfaced %v, want the body's panic", got)
	}
	rt.Stop()

	rt = New(2, RoundRobin())
	defer rt.Stop()
	if got := runPanicking(rt); got != "boom" {
		t.Fatalf("Step surfaced %v, want the body's panic", got)
	}
	rt.Reset(2, RoundRobin())
	var counts [2]int
	for i := 0; i < 2; i++ {
		rt.Spawn(i, func(p *Proc) {
			for {
				counts[i]++
				p.Pause()
			}
		})
	}
	if got := rt.Run(10); got != 10 || counts != [2]int{5, 5} {
		t.Fatalf("reused runtime ran %d steps, per-process %v; want 10, [5 5]", got, counts)
	}
}

// TestStopLeaksNoCoroutines checks Stop ends every process coroutine: after
// runtimes whose processes looped, exited, crashed, gated forever or
// panicked — across a Reset-and-reuse cycle — are stopped, the goroutine
// count is back at its baseline.
func TestStopLeaksNoCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	spawn := func(rt *Runtime) {
		rt.Spawn(0, func(p *Proc) {
			for {
				p.Pause()
			}
		})
		rt.Spawn(1, func(p *Proc) { p.Pause() })
		rt.Spawn(2, func(p *Proc) { p.Await(func() bool { return false }) })
		rt.Spawn(3, func(p *Proc) {
			for {
				p.Pause()
			}
		})
	}
	for k := int64(0); k < 4; k++ {
		rt := New(4, Random(k))
		spawn(rt)
		rt.Run(20)
		rt.Crash(3)
		rt.Run(20)
		rt.Reset(4, Random(k))
		spawn(rt)
		rt.Run(40)
		rt.Stop()
	}
	rt := New(2, RoundRobin())
	runPanicking(rt)
	rt.Stop()
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Stop, %d before the runtimes existed", got, base)
	}
}

// errAuxBoom is the aux step's panic value in TestChoicePanicsSurface.
var errAuxBoom = errors.New("aux boom")

// TestChoicePanicsSurface pins the two panics that can now unwind through a
// parked process's body, because that process makes the scheduling choice
// after its step: one from Policy.Next (a Script entry that is not runnable)
// and one from an aux step the process runs inline. Each must surface from
// Step and from Run with its original value; afterwards Reset and a fresh
// run work, and Stop leaves no goroutine behind.
func TestChoicePanicsSurface(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		// setup spawns process 0 on rt and returns the policy whose second
		// choice panics, and the panic value it must surface with.
		setup func(rt *Runtime) (Policy, any)
	}{
		{"policy", func(rt *Runtime) (Policy, any) {
			// Process 1 is never spawned, so the script's second entry is
			// not runnable.
			return Script([]int{0, 1}, RoundRobin()), "sched: script step 1 requires actor 1 but runnable=[0]"
		}},
		{"aux", func(rt *Runtime) (Policy, any) {
			aux := rt.AddAux(func() bool { return true }, func() { panic(errAuxBoom) })
			return Script([]int{0, aux}, RoundRobin()), errAuxBoom
		}},
	} {
		for _, byRun := range []bool{false, true} {
			rt := New(2, nil)
			pol, want := tc.setup(rt)
			rt.SetPolicy(pol)
			unwound := false
			rt.Spawn(0, func(p *Proc) {
				defer func() { unwound = true }()
				for {
					p.Pause()
				}
			})
			got := func() (got any) {
				defer func() { got = recover() }()
				if byRun {
					rt.Run(10)
				} else {
					for rt.Step() {
					}
				}
				return nil
			}()
			if got != want {
				t.Fatalf("%s, byRun=%t: surfaced %v, want %v", tc.name, byRun, got, want)
			}
			// Run makes the second choice inside process 0's Pause, so the
			// panic unwinds its body; single steps make it in Step itself.
			if unwound != byRun {
				t.Errorf("%s, byRun=%t: process 0's body unwound=%t", tc.name, byRun, unwound)
			}
			rt.Reset(2, RoundRobin())
			var counts [2]int
			for i := 0; i < 2; i++ {
				rt.Spawn(i, func(p *Proc) {
					for {
						counts[i]++
						p.Pause()
					}
				})
			}
			if got := rt.Run(10); got != 10 || counts != [2]int{5, 5} {
				t.Fatalf("%s, byRun=%t: reset runtime ran %d steps, per-process %v; want 10, [5 5]", tc.name, byRun, got, counts)
			}
			rt.Stop()
		}
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Stop, %d before the runtimes existed", got, base)
	}
}

package sched

import (
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

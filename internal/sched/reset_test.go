package sched

import (
	"testing"
)

// schedTrace runs a canonical workload — three processes taking turns under a
// seeded random policy, one crashed mid-run, one parked on a gate that never
// opens — and records the grant order and per-process step counts.
type schedTrace struct {
	order  []int
	counts [3]int
	steps  int
}

// runWorkload executes the workload on rt (already Reset/New for 3 procs with
// a nil policy) and returns its trace. Process 2 gates forever after a few
// steps; process 1 is crashed at step 20.
func runWorkload(rt *Runtime, seed int64) schedTrace {
	var tr schedTrace
	rt.SetPolicy(Random(seed))
	for i := 0; i < 3; i++ {
		i := i
		switch i {
		case 2:
			rt.Spawn(i, func(p *Proc) {
				for k := 0; k < 3; k++ {
					tr.order = append(tr.order, i)
					tr.counts[i]++
					p.Pause()
				}
				p.Await(func() bool { return false }) // gated at halt
			})
		default:
			rt.Spawn(i, func(p *Proc) {
				for {
					tr.order = append(tr.order, i)
					tr.counts[i]++
					p.Pause()
				}
			})
		}
	}
	for rt.Steps() < 60 {
		if rt.Steps() == 20 {
			rt.Crash(1)
		}
		if !rt.Step() {
			break
		}
	}
	tr.steps = rt.Steps()
	return tr
}

func (a schedTrace) equal(b schedTrace) bool {
	if a.steps != b.steps || a.counts != b.counts || len(a.order) != len(b.order) {
		return false
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			return false
		}
	}
	return true
}

// TestResetReplaysIdentically is the runtime-reuse contract: the same seed
// through a fresh runtime and through a 100×-reused one yields identical
// schedules, step counts and crash behaviour — including runs that end with
// crashed processes and processes gated at halt time.
func TestResetReplaysIdentically(t *testing.T) {
	fresh := New(3, nil)
	want := runWorkload(fresh, 7)
	fresh.Stop()
	if want.steps != 60 {
		t.Fatalf("workload stalled after %d steps", want.steps)
	}

	rt := New(3, nil)
	defer rt.Stop()
	got := runWorkload(rt, 7)
	if !got.equal(want) {
		t.Fatalf("first pooled run diverged: %+v vs %+v", got, want)
	}
	for i := 0; i < 100; i++ {
		rt.Reset(3, nil)
		got = runWorkload(rt, 7)
		if !got.equal(want) {
			t.Fatalf("reuse %d diverged: %+v vs %+v", i, got, want)
		}
	}
}

// TestResetAcrossSizes reuses one runtime for executions of different process
// counts, interleaved, each compared against a fresh runtime's trace.
func TestResetAcrossSizes(t *testing.T) {
	baseline := func(n int, seed int64) []int {
		rt := New(n, Random(seed))
		defer rt.Stop()
		var order []int
		for i := 0; i < n; i++ {
			i := i
			rt.Spawn(i, func(p *Proc) {
				for {
					order = append(order, i)
					p.Pause()
				}
			})
		}
		rt.Run(40)
		return order
	}

	rt := New(1, nil)
	defer rt.Stop()
	for _, n := range []int{4, 2, 5, 2, 4} {
		want := baseline(n, int64(n))
		rt.Reset(n, Random(int64(n)))
		var order []int
		for i := 0; i < n; i++ {
			i := i
			rt.Spawn(i, func(p *Proc) {
				for {
					order = append(order, i)
					p.Pause()
				}
			})
		}
		rt.Run(40)
		if len(order) != len(want) {
			t.Fatalf("n=%d: pooled run took %d grants, fresh %d", n, len(order), len(want))
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("n=%d: schedules diverge at %d", n, i)
			}
		}
	}
}

// TestResetReusesProcsAndAux verifies Reset rewinds counters and re-arms
// spawning, and that aux IDs restart at n.
func TestResetReusesProcsAndAux(t *testing.T) {
	rt := New(2, RoundRobin())
	rt.AddAux(func() bool { return false }, func() {})
	rt.Spawn(0, func(p *Proc) {
		for {
			p.Pause()
		}
	})
	rt.Run(5)
	if rt.Steps() != 5 {
		t.Fatalf("Steps = %d", rt.Steps())
	}
	defer rt.Stop()

	rt.Reset(2, RoundRobin())
	if rt.Steps() != 0 {
		t.Errorf("Steps after Reset = %d, want 0", rt.Steps())
	}
	if id := rt.AddAux(func() bool { return false }, func() {}); id != 2 {
		t.Errorf("first aux ID after Reset = %d, want 2", id)
	}
	// Spawning the same process again must not panic: Reset re-armed it.
	steps := 0
	rt.Spawn(0, func(p *Proc) {
		for {
			steps++
			p.Pause()
		}
	})
	rt.Run(4)
	if steps != 4 {
		t.Errorf("respawned process took %d steps, want 4", steps)
	}
	if rt.Crashed(0) || rt.Exited(0) {
		t.Error("Reset left stale crash/exit state")
	}
}

// TestResetAfterStopPanics pins the lifecycle: a stopped runtime is dead.
func TestResetAfterStopPanics(t *testing.T) {
	rt := New(1, RoundRobin())
	rt.Stop()
	defer func() {
		if recover() == nil {
			t.Error("Reset after Stop should panic")
		}
	}()
	rt.Reset(1, RoundRobin())
}

// TestStepZeroAlloc asserts the steady-state step loop allocates nothing:
// with processes spawned and an aux actor registered, scheduling a step is
// allocation-free, one Step at a time and in a Run or RunWith of many steps
// whose choices the parked processes make.
func TestStepZeroAlloc(t *testing.T) {
	rt := New(3, RoundRobin())
	defer rt.Stop()
	for i := 0; i < 3; i++ {
		rt.Spawn(i, func(p *Proc) {
			for {
				p.Pause()
			}
		})
	}
	rt.AddAux(func() bool { return true }, func() {})
	if avg := testing.AllocsPerRun(1000, func() { rt.Step() }); avg != 0 {
		t.Errorf("Step allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { rt.Run(50) }); avg != 0 {
		t.Errorf("Run allocates %.1f objects per call, want 0", avg)
	}
	hooks := 0
	before := func(int) { hooks++ }
	if avg := testing.AllocsPerRun(100, func() { rt.RunWith(50, before) }); avg != 0 {
		t.Errorf("RunWith allocates %.1f objects per call, want 0", avg)
	}
	if hooks != 101*50 {
		t.Errorf("before-step hook ran %d times over 101 runs of 50 steps", hooks)
	}
}

// TestResetZeroAlloc asserts the pooled per-execution setup is
// allocation-free in the steady state: once the runtime has grown to its
// working size, a full Reset + Spawn + run cycle with pre-built bodies and a
// reused policy allocates nothing.
func TestResetZeroAlloc(t *testing.T) {
	rt := New(3, nil)
	defer rt.Stop()
	pol := RoundRobin()
	bodies := make([]func(*Proc), 3)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			for {
				p.Pause()
			}
		}
	}
	cycle := func() {
		rt.Reset(3, pol)
		rt.AddAux(func() bool { return false }, func() {})
		for i, b := range bodies {
			rt.Spawn(i, b)
		}
		rt.Run(30)
	}
	cycle() // warm up: grow procs, runnable-set buffers, aux capacity, start coroutines
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("pooled execution cycle allocates %.1f objects, want 0", avg)
	}
}

package sched

import (
	"strings"
	"testing"
)

func TestRoundRobinRuns(t *testing.T) {
	rt := New(3, RoundRobin())
	var counts [3]int
	for i := 0; i < 3; i++ {
		i := i
		rt.Spawn(i, func(p *Proc) {
			for {
				counts[i]++
				p.Pause()
			}
		})
	}
	defer rt.Stop()
	if got := rt.Run(30); got != 30 {
		t.Fatalf("Run = %d, want 30", got)
	}
	for i, c := range counts {
		if c != 10 {
			t.Errorf("process %d took %d steps, want 10", i, c)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int {
		rt := New(4, Random(seed))
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			rt.Spawn(i, func(p *Proc) {
				for {
					order = append(order, i)
					p.Pause()
				}
			})
		}
		defer rt.Stop()
		rt.Run(50)
		return order
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestCrashStopsScheduling(t *testing.T) {
	rt := New(2, RoundRobin())
	var counts [2]int
	for i := 0; i < 2; i++ {
		i := i
		rt.Spawn(i, func(p *Proc) {
			for {
				counts[i]++
				p.Pause()
			}
		})
	}
	defer rt.Stop()
	rt.Run(10)
	rt.Crash(0)
	c0 := counts[0]
	rt.Run(10)
	if counts[0] != c0 {
		t.Errorf("crashed process took %d more steps", counts[0]-c0)
	}
	if counts[1] < 10 {
		t.Errorf("surviving process should keep running, took %d steps", counts[1])
	}
}

// TestAwaitGate opens a gate from another process's step, which wakes the
// gated process as the Await contract requires; the maintained runnable set
// is checked against a full re-poll at every step.
func TestAwaitGate(t *testing.T) {
	defer VerifyRunnable(VerifyRunnable(true))
	rt := New(2, RoundRobin())
	ready := false
	var got int
	rt.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return ready })
		got = 42
	})
	rt.Spawn(1, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Pause()
		}
		ready = true
		rt.Wake(0)
		p.Pause()
	})
	defer rt.Stop()
	rt.Run(100)
	if got != 42 {
		t.Error("gated process never resumed after gate opened")
	}
}

// TestUnwokenGateStaysClosed is the wake contract's other half: a gate
// opened without a Wake keeps its last answer, so the process stays parked,
// and the maintained ≡ polled differential reports the missing wake.
func TestUnwokenGateStaysClosed(t *testing.T) {
	run := func() (got int) {
		rt := New(2, RoundRobin())
		defer rt.Stop()
		ready := false
		rt.Spawn(0, func(p *Proc) {
			p.Await(func() bool { return ready })
			got = 42
		})
		rt.Spawn(1, func(p *Proc) {
			ready = true
			p.Pause()
		})
		rt.Run(100)
		return got
	}
	if got := run(); got != 0 {
		t.Fatal("a gate opened without a Wake was re-read")
	}
	defer VerifyRunnable(VerifyRunnable(true))
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "without waking") {
			t.Fatalf("the differential missed the unwoken gate: recovered %v", r)
		}
	}()
	run()
}

func TestStallDetected(t *testing.T) {
	rt := New(1, RoundRobin())
	rt.Spawn(0, func(p *Proc) {
		p.Await(func() bool { return false })
	})
	defer rt.Stop()
	if got := rt.Run(100); got >= 100 {
		t.Errorf("Run should stall, took %d steps", got)
	}
}

func TestProcessExit(t *testing.T) {
	rt := New(2, RoundRobin())
	rt.Spawn(0, func(p *Proc) {
		p.Pause()
		// returns: process exits
	})
	count := 0
	rt.Spawn(1, func(p *Proc) {
		for {
			count++
			p.Pause()
		}
	})
	defer rt.Stop()
	rt.Run(20)
	if count < 8 {
		t.Errorf("survivor only took %d steps", count)
	}
}

func TestAuxActor(t *testing.T) {
	rt := New(1, RoundRobin())
	fired := 0
	budget := 3
	id := rt.AddAux(func() bool { return budget > 0 }, func() {
		budget--
		fired++
	})
	if id != 1 {
		t.Errorf("aux actor id = %d, want 1", id)
	}
	seen := 0
	rt.Spawn(0, func(p *Proc) {
		for {
			seen = fired
			p.Pause()
		}
	})
	defer rt.Stop()
	rt.Run(50)
	if fired != 3 {
		t.Errorf("aux fired %d times, want 3", fired)
	}
	if seen != 3 {
		t.Errorf("process observed %d aux firings", seen)
	}
}

func TestScriptPolicy(t *testing.T) {
	rt := New(2, Script([]int{0, 0, 1, 0, 1, 1}, RoundRobin()))
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		rt.Spawn(i, func(p *Proc) {
			for {
				order = append(order, i)
				p.Pause()
			}
		})
	}
	defer rt.Stop()
	rt.Run(6)
	want := []int{0, 0, 1, 0, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("scripted order %v, want %v", order, want)
		}
	}
}

func TestScriptPolicyPanicsOnNonRunnable(t *testing.T) {
	rt := New(2, Script([]int{1}, RoundRobin()))
	rt.Spawn(0, func(p *Proc) {
		for {
			p.Pause()
		}
	})
	// Process 1 never spawned: script entry 1 is not runnable.
	defer rt.Stop()
	defer func() {
		if recover() == nil {
			t.Error("script policy should panic on non-runnable entry")
		}
	}()
	rt.Run(1)
}

func TestPrioritize(t *testing.T) {
	rt := New(1, Prioritize(1, RoundRobin()))
	budget := 5
	rt.AddAux(func() bool { return budget > 0 }, func() { budget-- })
	steps0 := 0
	rt.Spawn(0, func(p *Proc) {
		for {
			steps0++
			p.Pause()
		}
	})
	defer rt.Stop()
	rt.Run(8)
	if budget != 0 {
		t.Errorf("prioritized actor still has budget %d", budget)
	}
	if steps0 != 3 {
		t.Errorf("process took %d steps, want 3 (after aux exhausted)", steps0)
	}
}

func TestBiasedPolicyDistribution(t *testing.T) {
	rt := New(1, Biased(3, 1, 0.9))
	auxSteps, procSteps := 0, 0
	rt.AddAux(func() bool { return true }, func() { auxSteps++ })
	rt.Spawn(0, func(p *Proc) {
		for {
			procSteps++
			p.Pause()
		}
	})
	defer rt.Stop()
	rt.Run(1000)
	if auxSteps < 800 {
		t.Errorf("bias 0.9 gave aux only %d/1000 steps", auxSteps)
	}
	if procSteps == 0 {
		t.Error("proc starved entirely under bias 0.9")
	}
}

func TestStopIsIdempotentAndReleasesGoroutines(t *testing.T) {
	rt := New(3, RoundRobin())
	for i := 0; i < 3; i++ {
		rt.Spawn(i, func(p *Proc) {
			for {
				p.Pause()
			}
		})
	}
	rt.Run(10)
	rt.Crash(2)
	rt.Stop()
	rt.Stop() // second call must be a no-op
}

func TestPolicyFunc(t *testing.T) {
	// PolicyFunc adapts a closure; here a worst-fit policy: always the
	// highest runnable ID.
	rt := New(2, PolicyFunc(func(runnable []int, _ int) int {
		return runnable[len(runnable)-1]
	}))
	got := []int{}
	for i := 0; i < 2; i++ {
		i := i
		rt.Spawn(i, func(p *Proc) {
			for {
				got = append(got, i)
				p.Pause()
			}
		})
	}
	defer rt.Stop()
	rt.Run(6)
	for _, id := range got {
		if id != 1 {
			t.Fatalf("highest-ID policy scheduled process %d (order %v)", id, got)
		}
	}
}

func TestBurstyPolicySticksAndIsFair(t *testing.T) {
	// Bursts: consecutive grants go to the same actor far more often than
	// uniform choice would, yet every actor still runs.
	rt := New(3, BurstyFrom(newRand(7), 8))
	last, repeats, total := -1, 0, 0
	steps := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		rt.Spawn(i, func(p *Proc) {
			for {
				steps[i]++
				if last == i {
					repeats++
				}
				last = i
				total++
				p.Pause()
			}
		})
	}
	defer rt.Stop()
	rt.Run(3000)
	for i, s := range steps {
		if s == 0 {
			t.Errorf("process %d starved under Bursty", i)
		}
	}
	// Uniform choice over 3 runnable actors repeats ~1/3 of the time; mean-8
	// bursts must repeat far more often.
	if repeats*2 < total {
		t.Errorf("Bursty(mean 8) repeated only %d of %d grants", repeats, total)
	}
}

func TestBurstyDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		rt := New(2, BurstyFrom(newRand(42), 4))
		var order []int
		for i := 0; i < 2; i++ {
			i := i
			rt.Spawn(i, func(p *Proc) {
				for {
					order = append(order, i)
					p.Pause()
				}
			})
		}
		defer rt.Stop()
		rt.Run(200)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different schedule lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at step %d", i)
		}
	}
}

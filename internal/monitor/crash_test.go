package monitor

import (
	"testing"
	"time"

	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/sched"
)

// TestWaitFreedomUnderCrashes exercises the model's fault tolerance: up to
// n−1 monitor processes crash mid-run and the survivor must keep reporting —
// its blocks are wait-free, so no crash can block it. Every monitor family
// is run with all-but-one processes crashed early.
func TestWaitFreedomUnderCrashes(t *testing.T) {
	wec := lang.WECCount()
	src := wec.Sources(testProcs, 3)[0]
	monitors := []Monitor{
		NewWEC(adversary.ArrayAtomic),
		NewWEC(adversary.ArrayAADGMS),
		NewWEC(adversary.ArrayCollect),
		AmplifyWAD(NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic),
		AmplifyWOD(NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic),
		Stabilize(NewWEC(adversary.ArrayAtomic)),
		ThreeValuedWEC(adversary.ArrayAtomic),
	}
	for _, m := range monitors {
		adv := adversary.NewA(testProcs, src.New())
		res := Run(Config{
			N:       testProcs,
			Monitor: m,
			NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
				return adv, []int{adv.Register(rt)}
			},
			Policy: func(aux []int) sched.Policy {
				return sched.Biased(3, aux[0], 0.5)
			},
			MaxSteps: 20_000,
			// Crash all processes but p0 early: n−1 crashes, the maximum the
			// model allows.
			Crash: map[int][]int{500: {1}, 900: {2}},
		})
		if len(res.Verdicts[0]) < 10 {
			t.Errorf("%s: survivor reported only %d times with %d crashed peers — not wait-free",
				m.Name(), len(res.Verdicts[0]), testProcs-1)
		}
	}
}

// TestCrashedProcessStopsReporting confirms the crash model: a crashed
// process takes no further steps, so its verdict stream freezes.
func TestCrashedProcessStopsReporting(t *testing.T) {
	wec := lang.WECCount()
	src := wec.Sources(testProcs, 3)[0]
	adv := adversary.NewA(testProcs, src.New())
	res := Run(Config{
		N:       testProcs,
		Monitor: NewWEC(adversary.ArrayAtomic),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return adv, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(3, aux[0], 0.5)
		},
		MaxSteps: 20_000,
		Crash:    map[int][]int{200: {2}},
	})
	if len(res.Verdicts[2]) >= len(res.Verdicts[0]) {
		t.Errorf("crashed process reported %d times, survivor %d — crash did not stop it",
			len(res.Verdicts[2]), len(res.Verdicts[0]))
	}
}

// TestTimedMonitorSurvivesCrashes runs the predictive monitor with a crashed
// peer: views keep flowing (the announce/snapshot protocol is wait-free) and
// the survivors keep deciding.
func TestTimedMonitorSurvivesCrashes(t *testing.T) {
	lr := lang.LinReg()
	src := lr.Sources(testProcs, 5)[0]
	res, _ := func() (*Result, *adversary.Timed) {
		adv := adversary.NewA(testProcs, src.New())
		tau := adversary.NewTimed(testProcs, adv, adversary.ArrayAtomic)
		res := Run(Config{
			N:       testProcs,
			Monitor: NewWEC(adversary.ArrayAtomic), // any monitor exercises the wrapper
			NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
				return tau, []int{adv.Register(rt)}
			},
			Policy: func(aux []int) sched.Policy {
				return sched.Biased(5, aux[0], 0.5)
			},
			MaxSteps: 8_000,
			Crash:    map[int][]int{400: {1}},
		})
		return res, tau
	}()
	for _, p := range []int{0, 2} {
		if len(res.Responses[p]) == 0 {
			t.Fatalf("survivor %d received no responses", p)
		}
		for k, r := range res.Responses[p] {
			if r.View == nil {
				t.Errorf("survivor %d response %d has no view — wrapper stalled after crash", p, k)
				break
			}
		}
	}
}

// TestAllCrashedRunEnds crashes every process of a run against an infinite
// LIN_REG source, beyond the n−1 crashes the model allows: with no process
// left to own a symbol, the cursor must stop pulling rather than skip the
// source's symbols forever, so the run ends, drained, long before its step
// bound. The run gets its own goroutine and a deadline, so a hang fails the
// test instead of stalling the package.
func TestAllCrashedRunEnds(t *testing.T) {
	const maxSteps = 100_000
	done := make(chan *Result, 1)
	go func() {
		adv := adversary.NewA(testProcs, lang.LinReg().Sources(testProcs, 1)[0].New())
		tau := adversary.NewTimed(testProcs, adv, adversary.ArrayAtomic)
		done <- Run(Config{
			N:       testProcs,
			Monitor: NewLin(lang.LinReg().Object, tau, adversary.ArrayAtomic),
			NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
				return tau, []int{adv.Register(rt)}
			},
			MaxSteps: maxSteps,
			Crash:    map[int][]int{3: {0}, 140: {1, 2}},
		})
	}()
	select {
	case res := <-done:
		if !res.Drained || res.Steps >= maxSteps {
			t.Errorf("the run took %d of %d steps, drained %v: want it to end when the last process crashed",
				res.Steps, maxSteps, res.Drained)
		}
		if len(res.Verdicts[1]) == 0 || len(res.Verdicts[2]) == 0 {
			t.Errorf("processes 1 and 2 reported %d and %d verdicts before their crash, want some",
				len(res.Verdicts[1]), len(res.Verdicts[2]))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not end within 20 s of every process crashing")
	}
}

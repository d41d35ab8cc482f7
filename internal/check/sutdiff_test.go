package check

// Differential validation of the memoized witness search against the
// exhaustive brute-force reference, on histories generated by the real
// implementations of package sut rather than synthetic words — including
// histories with operations left pending by a mid-run process crash, the
// shape the explorer's object family feeds the checkers. Workloads are kept
// tiny (≤ 6 operations) so the brute reference stays affordable.

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// sutHistory drives n processes through the implementation under a random
// workload and schedule, optionally crashing crashProc at step crashStep,
// and returns the exhibited concurrent history.
func sutHistory(t *testing.T, obj trace.Object, impl sut.Impl, n, opsPerProc int, seed int64, crashStep, crashProc int) trace.Word {
	t.Helper()
	svc := sut.NewService(n, impl, sut.NewRandomWorkload(obj, n, opsPerProc, 0.6, seed))
	rt := sched.New(n, sched.Random(seed))
	defer rt.Stop()
	for i := 0; i < n; i++ {
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					return
				}
				svc.Send(p, v)
				svc.Recv(p)
			}
		})
	}
	for rt.Steps() < 5000 {
		if crashStep > 0 && rt.Steps() == crashStep && !rt.Crashed(crashProc) {
			rt.Crash(crashProc)
		}
		if !rt.Step() {
			break
		}
	}
	return svc.History()
}

var _ adversary.Service = (*sut.Service)(nil) // the histories come through the same interface the monitors use

func TestFrontSearchMatchesBruteOnSUTHistories(t *testing.T) {
	cases := []struct {
		name string
		obj  trace.Object
		mk   func(n int) sut.Impl
	}{
		{"queue/lock", trace.Queue(), func(n int) sut.Impl { return sut.NewLockQueue() }},
		{"queue/lifo", trace.Queue(), func(n int) sut.Impl { return sut.NewLIFOQueue() }},
		{"stack/lock", trace.Stack(), func(n int) sut.Impl { return sut.NewLockStack() }},
		{"stack/fifo", trace.Stack(), func(n int) sut.Impl { return sut.NewFIFOStack() }},
		{"register/atomic", trace.Register(), func(n int) sut.Impl { return sut.NewAtomicRegister() }},
		{"register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }},
		{"register/split", trace.Register(), func(n int) sut.Impl { return sut.NewSplitRegister(n) }},
	}
	const n, opsPerProc = 2, 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sawPending := false
			for seed := int64(1); seed <= 12; seed++ {
				// Crash-free run, then a run crashing process 1 mid-flight:
				// the crashed process's open operation stays pending, the
				// exact shape pending-completion handling must get right.
				for _, crashStep := range []int{0, 9} {
					h := sutHistory(t, tc.obj, tc.mk(n), n, opsPerProc, seed, crashStep, 1)
					ops := trace.Operations(h)
					if len(ops) == 0 || len(ops) > 7 {
						continue
					}
					for _, o := range ops {
						if o.Pending() {
							sawPending = true
						}
					}
					fastLin := LinearizableOps(tc.obj, ops)
					if brute := BruteLinearizable(tc.obj, h); brute != fastLin {
						t.Errorf("seed %d crash %d: witness search lin=%v, brute lin=%v on\n%v",
							seed, crashStep, fastLin, brute, h)
					}
					fastSC := SeqConsistentOps(tc.obj, ops)
					if brute := BruteSeqConsistent(tc.obj, h); brute != fastSC {
						t.Errorf("seed %d crash %d: witness search sc=%v, brute sc=%v on\n%v",
							seed, crashStep, fastSC, brute, h)
					}
					// Linearizability implies sequential consistency; the two
					// searches must never invert the implication.
					if fastLin && !fastSC {
						t.Errorf("seed %d crash %d: linearizable but not sequentially consistent:\n%v",
							seed, crashStep, h)
					}
				}
			}
			if !sawPending {
				t.Error("no schedule left an operation pending at the crash; the differential never hit the pending path")
			}
		})
	}
}

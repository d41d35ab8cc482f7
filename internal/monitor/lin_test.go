package monitor

// The from-scratch reference for V_O's verdict stream: a predictive logic
// that publishes and builds the sketch exactly as predictiveLogic does, then
// decides every round with the one-shot check.Linearizable or
// check.SeqConsistent on the round's sketch instead of a per-process
// incremental checker. NewLin and NewSC must report the same verdicts, at
// the same steps and history lengths, on language-, object- and
// message-shaped runs.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// scratchLogic is predictiveLogic deciding each round from scratch.
type scratchLogic struct{ *predictiveLogic }

func (l scratchLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	h, err := l.round(p, resp)
	ok := err != nil // incomparable views report YES, as in predictiveLogic
	if !ok {
		if l.realTime {
			ok = check.Linearizable(l.obj, h)
		} else {
			ok = check.SeqConsistent(l.obj, h)
		}
	}
	l.verdict = No
	if ok {
		l.verdict = Yes
	}
}

// newScratchPredictive is V_O over scratchLogic.
func newScratchPredictive(obj trace.Object, tau *adversary.Timed, realTime bool) Monitor {
	return NewMonitor("scratch-fig8/"+obj.Name(), func(n int) []Logic {
		board := newTripleBoard(n, adversary.ArrayAtomic)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = scratchLogic{&predictiveLogic{n: n, board: board, tau: tau, obj: obj, realTime: realTime}}
		}
		return logics
	})
}

// predictiveRun is one run shape: setup builds a fresh timed service and the
// run's configuration, less its monitor.
type predictiveRun struct {
	name  string
	obj   trace.Object
	setup func() (*adversary.Timed, Config)
}

// langRun exhibits a labelled source of the language through A and Aτ.
func langRun(l lang.Lang, src int, seed int64, crash map[int][]int, steps int) predictiveRun {
	lb := l.Sources(testProcs, seed)[src]
	return predictiveRun{
		name: fmt.Sprintf("lang/%s/%s/seed=%d", l.Name, lb.Name, seed),
		obj:  l.Object,
		setup: func() (*adversary.Timed, Config) {
			adv := adversary.NewA(testProcs, lb.New())
			tau := adversary.NewTimed(testProcs, adv, adversary.ArrayAtomic)
			return tau, Config{
				N: testProcs,
				NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
					return tau, []int{adv.Register(rt)}
				},
				Policy:   func(aux []int) sched.Policy { return sched.Biased(seed, aux[0], 0.5) },
				MaxSteps: steps,
				Crash:    crash,
			}
		},
	}
}

// objRun drives an implementation of package sut under a random workload.
func objRun(name string, obj trace.Object, mk func(n int) sut.Impl, seed int64, crash map[int][]int) predictiveRun {
	return predictiveRun{
		name: fmt.Sprintf("obj/%s/seed=%d", name, seed),
		obj:  obj,
		setup: func() (*adversary.Timed, Config) {
			svc := sut.NewService(testProcs, mk(testProcs), sut.NewRandomWorkload(obj, testProcs, 8, 0.5, seed))
			tau := adversary.NewTimed(testProcs, svc, adversary.ArrayAtomic)
			return tau, Config{
				N: testProcs,
				NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
					return tau, nil
				},
				Policy:   func([]int) sched.Policy { return sched.Random(seed) },
				MaxSteps: 3000,
				Crash:    crash,
			}
		},
	}
}

// msgRun drives an emulation of package abd over the message network
// under a loss schedule.
func msgRun(name string, obj trace.Object, mk func(*msgnet.Net) (sut.Impl, abd.Server), seed int64, drops []int) predictiveRun {
	return predictiveRun{
		name: fmt.Sprintf("msg/%s/seed=%d/drops=%v", name, seed, drops),
		obj:  obj,
		setup: func() (*adversary.Timed, Config) {
			nt := msgnet.New(testProcs, msgnet.RandomOrder(seed))
			nt.SetDrops(drops)
			impl, srv := mk(nt)
			svc := sut.NewService(testProcs, impl, sut.NewRandomWorkload(obj, testProcs, 8, 0.5, seed))
			tau := adversary.NewTimed(testProcs, svc, adversary.ArrayAtomic)
			return tau, Config{
				N: testProcs,
				NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
					return tau, append([]int{nt.Register(rt)}, abd.Servers(rt, testProcs, srv)...)
				},
				Policy:   func(aux []int) sched.Policy { return sched.Biased(seed, aux[0], 0.5) },
				MaxSteps: 20_000,
			}
		},
	}
}

// TestPredictiveMatchesScratchRounds compares NewLin and NewSC verdict by
// verdict with the from-scratch reference.
func TestPredictiveMatchesScratchRounds(t *testing.T) {
	// Fixed step bounds: the reference re-searches every round's whole sketch,
	// which grows with the run.
	const linSteps, scRefSteps = 1500, 500
	crash := map[int][]int{150: {1}}
	runs := map[string][]predictiveRun{
		"lang": {
			langRun(lang.LinReg(), 0, 3, nil, linSteps),
			langRun(lang.LinReg(), 1, 4, crash, linSteps),
			langRun(lang.SCReg(), 0, 5, nil, scRefSteps),
			langRun(lang.SCReg(), 1, 6, crash, scRefSteps),
			langRun(lang.LinLed(), 1, 7, nil, linSteps),
			langRun(lang.SCLed(), 1, 8, nil, scRefSteps),
		},
		"obj": {
			objRun("queue/lifo", trace.Queue(), func(int) sut.Impl { return sut.NewLIFOQueue() }, 1, nil),
			objRun("queue/lock", trace.Queue(), func(int) sut.Impl { return sut.NewLockQueue() }, 2, crash),
			objRun("register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }, 3, nil),
			objRun("ledger/forked", trace.Ledger(), func(n int) sut.Impl { return sut.NewForkedLedger(n) }, 4, nil),
		},
		"msg": {
			msgRun("register/abd", trace.Register(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
				r := abd.NewRegister("x", testProcs, nt, 0)
				return abd.NewRegisterImpl(r), r
			}, 1, []int{1, 4}),
			msgRun("consensus/coord", trace.Consensus(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
				c := abd.NewConsensus("k", testProcs, nt)
				return abd.NewConsensusImpl(c), c
			}, 2, nil),
			msgRun("consensus/echo", trace.Consensus(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
				c := abd.NewConsensus("k", testProcs, nt).Echo()
				return abd.NewConsensusImpl(c), c
			}, 3, nil),
		},
	}
	for _, fam := range []string{"lang", "obj", "msg"} {
		t.Run(fam, func(t *testing.T) {
			verdicts, nos := 0, 0
			for _, r := range runs[fam] {
				for _, realTime := range []bool{true, false} {
					tau, cfg := r.setup()
					if realTime {
						cfg.Monitor = NewLin(r.obj, tau, adversary.ArrayAtomic)
					} else {
						cfg.Monitor = NewSC(r.obj, tau, adversary.ArrayAtomic)
					}
					name := cfg.Monitor.Name()
					got := Run(cfg)
					tau, cfg = r.setup()
					cfg.Monitor = newScratchPredictive(r.obj, tau, realTime)
					want := Run(cfg)
					if !reflect.DeepEqual(got.Verdicts, want.Verdicts) ||
						!reflect.DeepEqual(got.StepAt, want.StepAt) ||
						!reflect.DeepEqual(got.HistAt, want.HistAt) {
						t.Fatalf("%s realTime=%v: %s reported\n%v\nthe from-scratch reference\n%v",
							r.name, realTime, name, got.Verdicts, want.Verdicts)
					}
					for _, vs := range got.Verdicts {
						verdicts += len(vs)
					}
					nos += got.TotalNO()
				}
			}
			t.Logf("%d verdicts, %d NO", verdicts, nos)
			if nos == 0 || nos == verdicts {
				t.Errorf("%d NO among %d verdicts: the runs must exercise both answers", nos, verdicts)
			}
		})
	}
}

package monitor

// Over an atomic board, V_O's processes feed one shared chain; the
// per-process monitors (NewLinPerProcess, NewSCPerProcess) give each process
// its own, as the AADGMS and collect boards always do. Every verdict is a
// function of the process's collected set alone, so the two must report the
// same run: these tests compare them over language, object and
// message-passing services, board kinds, crash schedules and both Aτ array
// kinds, and check every round that the chain a process fed holds exactly
// its snapshot's set and carries that set's sketch.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// chainCase is one service V_O monitors: service builds a fresh inner
// service for the seed and returns it with the function that registers its
// auxiliary actors on the run's runtime.
type chainCase struct {
	name    string
	obj     trace.Object
	steps   int
	service func(seed int64) (adversary.Service, func(rt *sched.Runtime) []int)
}

func langCase(l lang.Lang, src int) chainCase {
	return chainCase{
		name:  fmt.Sprintf("lang/%s/%d", l.Name, src),
		obj:   l.Object,
		steps: 1500,
		service: func(seed int64) (adversary.Service, func(*sched.Runtime) []int) {
			adv := adversary.NewA(testProcs, l.Sources(testProcs, seed)[src].New())
			return adv, func(rt *sched.Runtime) []int { return []int{adv.Register(rt)} }
		},
	}
}

func implCase(name string, obj trace.Object, mk func(n int) sut.Impl) chainCase {
	return chainCase{
		name:  "obj/" + name,
		obj:   obj,
		steps: 3000,
		service: func(seed int64) (adversary.Service, func(*sched.Runtime) []int) {
			svc := sut.NewService(testProcs, mk(testProcs), sut.NewRandomWorkload(obj, testProcs, 8, 0.5, seed))
			return svc, func(*sched.Runtime) []int { return nil }
		},
	}
}

func msgCase(name string, obj trace.Object, mk func(*msgnet.Net) (sut.Impl, abd.Server)) chainCase {
	return chainCase{
		name:  "msg/" + name,
		obj:   obj,
		steps: 20_000,
		service: func(seed int64) (adversary.Service, func(*sched.Runtime) []int) {
			nt := msgnet.New(testProcs, msgnet.RandomOrder(seed))
			impl, srv := mk(nt)
			svc := sut.NewService(testProcs, impl, sut.NewRandomWorkload(obj, testProcs, 8, 0.5, seed))
			return svc, func(rt *sched.Runtime) []int {
				return append([]int{nt.Register(rt)}, abd.Servers(rt, testProcs, srv)...)
			}
		},
	}
}

// chainCases covers every object V_O takes, with correct and faulty
// services, so the runs report both answers.
var chainCases = []chainCase{
	langCase(lang.LinReg(), 0),
	langCase(lang.LinReg(), 1),
	langCase(lang.SCReg(), 1),
	langCase(lang.LinLed(), 0),
	langCase(lang.LinLed(), 1),
	langCase(lang.SCLed(), 2),
	implCase("register/atomic", trace.Register(), func(int) sut.Impl { return sut.NewAtomicRegister() }),
	implCase("register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }),
	implCase("register/split", trace.Register(), func(n int) sut.Impl { return sut.NewSplitRegister(n) }),
	implCase("counter/snapshot", trace.Counter(), func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAtomic) }),
	implCase("counter/inflated", trace.Counter(), func(n int) sut.Impl { return sut.NewInflatedCounter(n, 1) }),
	implCase("queue/lock", trace.Queue(), func(int) sut.Impl { return sut.NewLockQueue() }),
	implCase("queue/lifo", trace.Queue(), func(int) sut.Impl { return sut.NewLIFOQueue() }),
	implCase("stack/lock", trace.Stack(), func(int) sut.Impl { return sut.NewLockStack() }),
	implCase("stack/fifo", trace.Stack(), func(int) sut.Impl { return sut.NewFIFOStack() }),
	implCase("ledger/lock", trace.Ledger(), func(int) sut.Impl { return sut.NewLockLedger() }),
	implCase("ledger/forked", trace.Ledger(), func(n int) sut.Impl { return sut.NewForkedLedger(n) }),
	implCase("ledger/lossy", trace.Ledger(), func(int) sut.Impl { return sut.NewLossyLedger(3) }),
	msgCase("register/abd", trace.Register(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
		r := abd.NewRegister("x", testProcs, nt, 0)
		return abd.NewRegisterImpl(r), r
	}),
	msgCase("consensus/coord", trace.Consensus(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
		c := abd.NewConsensus("k", testProcs, nt)
		return abd.NewConsensusImpl(c), c
	}),
	msgCase("consensus/echo", trace.Consensus(), func(nt *msgnet.Net) (sut.Impl, abd.Server) {
		c := abd.NewConsensus("k", testProcs, nt).Echo()
		return abd.NewConsensusImpl(c), c
	}),
}

// chainCrashes are the crash schedules the differential runs: none, one
// process, and every process but one.
var chainCrashes = []map[int][]int{nil, {150: {1}}, {40: {0}, 400: {2}}}

// setProbe is predictiveLogic checking, after every round, that the chain
// the process fed holds exactly the triples its snapshot shows, and that
// the chain's sketch is the one built from scratch on that set. It counts
// the rounds whose sketch failed to build in unbuilt.
type setProbe struct {
	*predictiveLogic
	unbuilt *int
	fail    func(string)
}

func (s setProbe) PostRecv(p *sched.Proc, resp trace.Response) {
	s.predictiveLogic.PostRecv(p, resp)
	b, c := s.board, s.chain
	snap := b.snaps[p.ID]
	if !slices.Equal(c.fed, snap) {
		s.fail(fmt.Sprintf("process %d: its chain holds %v of the logs, its snapshot shows %v", p.ID, c.fed, snap))
		return
	}
	var set []trace.Triple
	for j, k := range snap {
		set = append(set, b.logs[j][:k]...)
	}
	want, wantErr := trace.BuildSketch(s.n, set, s.tau.InvAt)
	if wantErr != nil {
		*s.unbuilt++
	}
	// Feeding nothing returns the chain's sketch again and leaves the
	// builder as the round left it.
	got, _, err := c.builder.Extend(s.n, nil, s.tau.InvAt)
	if (err == nil) != (wantErr == nil) || !got.Equal(want) {
		s.fail(fmt.Sprintf("process %d: its chain's sketch is\n%v (error %v)\nbut its collected set's is\n%v (error %v)",
			p.ID, got, err, want, wantErr))
	}
}

// runChains runs V_O — NewLin, or NewSC if sc is set — over a board of the
// given kind against the case, as the monitor builds it if shared is set,
// and with a chain per process otherwise. Every logic is wrapped in a
// setProbe reporting to fail.
func runChains(c chainCase, seed int64, board, tauKind adversary.ArrayKind, crash map[int][]int, sc, shared bool, steps int, unbuilt *int, fail func(string)) *Result {
	return runCase(c, seed, tauKind, crash, steps, func(tau *adversary.Timed) Monitor {
		var m Monitor
		switch {
		case sc && shared:
			m = NewSC(c.obj, tau, board)
		case sc:
			m = NewSCPerProcess(c.obj, tau, board)
		case shared:
			m = NewLin(c.obj, tau, board)
		default:
			m = NewLinPerProcess(c.obj, tau, board)
		}
		return NewMonitor("probe-"+m.Name(), func(n int) []Logic {
			logics := m.New(n)
			for i, l := range logics {
				logics[i] = setProbe{predictiveLogic: l.(*predictiveLogic), unbuilt: unbuilt, fail: fail}
			}
			return logics
		})
	})
}

// runCase runs the monitor mk builds against the case's service wrapped in
// an Aτ over tauKind. The schedule is random, or bursty over a
// collect-backed Aτ.
func runCase(c chainCase, seed int64, tauKind adversary.ArrayKind, crash map[int][]int, steps int, mk func(*adversary.Timed) Monitor) *Result {
	inner, register := c.service(seed)
	tau := adversary.NewTimed(testProcs, inner, tauKind)
	return Run(Config{
		N:       testProcs,
		Monitor: mk(tau),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, register(rt)
		},
		Policy: func(aux []int) sched.Policy {
			switch {
			case tauKind == adversary.ArrayCollect:
				// Incomparable views need one process's collect to stall
				// while others announce, which bursts produce.
				return sched.BurstyFrom(rand.New(rand.NewSource(seed)), 5)
			case len(aux) == 0:
				return sched.Random(seed)
			}
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
		Crash:    crash,
	})
}

// chainsAgree runs the case as the monitor builds it — one shared chain
// over an atomic board — and with a chain per process, and returns a description of the first difference between the
// two runs or between a chain and its process's set, or "" if none; it also
// returns the shared run and counts its unbuilt sketches in unbuilt.
func chainsAgree(c chainCase, seed int64, board, tauKind adversary.ArrayKind, crash map[int][]int, sc bool, steps int, unbuilt *int) (string, *Result) {
	var bad string
	fail := func(msg string) {
		if bad == "" {
			bad = msg
		}
	}
	one := runChains(c, seed, board, tauKind, crash, sc, true, steps, unbuilt, fail)
	each := runChains(c, seed, board, tauKind, crash, sc, false, steps, new(int), fail)
	switch {
	case bad != "":
	case !reflect.DeepEqual(one.Verdicts, each.Verdicts):
		bad = fmt.Sprintf("one chain reported\n%v\nper-process chains\n%v", one.Verdicts, each.Verdicts)
	case !reflect.DeepEqual(one.StepAt, each.StepAt):
		bad = fmt.Sprintf("verdict steps differ:\n%v\n%v", one.StepAt, each.StepAt)
	case !reflect.DeepEqual(one.HistAt, each.HistAt):
		bad = fmt.Sprintf("verdict history lengths differ:\n%v\n%v", one.HistAt, each.HistAt)
	case !one.History.Equal(each.History):
		bad = fmt.Sprintf("histories differ:\n%v\n%v", one.History, each.History)
	}
	return bad, one
}

// TestOneChainMatchesPerProcessChains is the differential over every case,
// NewLin and NewSC, seeds, crash schedules and both Aτ array kinds: the
// collect-backed Aτ hands out incomparable views, so sketches fail to build
// and the chain must carry the failure exactly as the processes' own sets
// would. The AADGMS and collect boards, where the monitors keep a chain per
// process, run the first seed only.
func TestOneChainMatchesPerProcessChains(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	verdicts, nos, unbuilt := 0, 0, 0
	for _, board := range arrayKinds {
		seeds := seeds
		if board != adversary.ArrayAtomic {
			seeds = seeds[:1]
		}
		for _, c := range chainCases {
			for _, tauKind := range []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayCollect} {
				for _, sc := range []bool{false, true} {
					for _, seed := range seeds {
						for _, crash := range chainCrashes {
							bad, res := chainsAgree(c, seed, board, tauKind, crash, sc, c.steps, &unbuilt)
							if bad != "" {
								t.Fatalf("%s board=%s Aτ=%s sc=%v seed %d crash %v: %s", c.name, board, tauKind, sc, seed, crash, bad)
							}
							for _, vs := range res.Verdicts {
								verdicts += len(vs)
							}
							nos += res.TotalNO()
						}
					}
				}
			}
		}
	}
	t.Logf("%d verdicts, %d NO, %d with no sketch", verdicts, nos, unbuilt)
	if nos == 0 || nos == verdicts {
		t.Errorf("%d NO among %d verdicts: the runs must exercise both answers", nos, verdicts)
	}
	if unbuilt == 0 {
		t.Errorf("no round's sketch failed to build: the collect-backed Aτ runs must exercise incomparable views")
	}
}

// FuzzOneChainMatchesPerProcess is the differential over fuzzed cases,
// board and Aτ kinds, seeds, crash schedules and step bounds.
func FuzzOneChainMatchesPerProcess(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint16(150), uint8(1), false, false, uint16(900))
	f.Add(uint8(12), uint8(0), int64(2), uint16(40), uint8(0), true, true, uint16(1500))
	f.Add(uint8(18), uint8(1), int64(3), uint16(0), uint8(0), false, false, uint16(3000))
	f.Fuzz(func(t *testing.T, ci, bi uint8, seed int64, crashAt uint16, crashProc uint8, sc, collect bool, steps uint16) {
		c := chainCases[int(ci)%len(chainCases)]
		board := arrayKinds[int(bi)%len(arrayKinds)]
		var crash map[int][]int
		if crashAt > 0 {
			crash = map[int][]int{int(crashAt) % 2000: {int(crashProc) % testProcs}}
		}
		tauKind := adversary.ArrayAtomic
		if collect {
			tauKind = adversary.ArrayCollect
		}
		n := 1 + int(steps)%c.steps
		if bad, _ := chainsAgree(c, seed, board, tauKind, crash, sc, n, new(int)); bad != "" {
			t.Fatalf("%s board=%s Aτ=%s sc=%v seed %d crash %v steps %d: %s", c.name, board, tauKind, sc, seed, crash, n, bad)
		}
	})
}

// TestTornSetsReportYes runs V_O over collect-backed boards, where a
// collect can tear a collected set (errTornSet): it reads one process's
// count before that process publishes a triple, and a later cell after a
// triple whose view shows that process's next operation. V_O must report
// YES on those rounds, where it used to hand the checker a sketch with two
// operations of one process pending, and every verdict must equal the
// from-scratch reference's, so each chain's checker resumes from the last
// sketch it really got.
func TestTornSetsReportYes(t *testing.T) {
	torn, runs := 0, 0
	for _, c := range chainCases {
		for seed := int64(1); seed <= 20; seed++ {
			got := runCase(c, seed, adversary.ArrayCollect, nil, c.steps, func(tau *adversary.Timed) Monitor {
				m := NewLin(c.obj, tau, adversary.ArrayCollect)
				return NewMonitor("torn-"+m.Name(), func(n int) []Logic {
					logics := m.New(n)
					for i, l := range logics {
						logics[i] = &tornCounter{predictiveLogic: l.(*predictiveLogic), torn: &torn}
					}
					return logics
				})
			})
			want := runCase(c, seed, adversary.ArrayCollect, nil, c.steps, func(tau *adversary.Timed) Monitor {
				return newScratchPredictive(c.obj, tau, adversary.ArrayCollect, true)
			})
			if !reflect.DeepEqual(got.Verdicts, want.Verdicts) || !reflect.DeepEqual(got.StepAt, want.StepAt) {
				t.Fatalf("%s seed %d: V_O reported\n%v\nthe from-scratch reference\n%v", c.name, seed, got.Verdicts, want.Verdicts)
			}
			runs++
		}
	}
	t.Logf("%d runs, %d torn rounds", runs, torn)
	if torn == 0 {
		t.Error("no round collected a torn set")
	}
}

// tornCounter is predictiveLogic counting the rounds whose set was torn,
// and checking that each reported YES.
type tornCounter struct {
	*predictiveLogic
	torn *int
}

func (l *tornCounter) PostRecv(p *sched.Proc, resp trace.Response) {
	l.predictiveLogic.PostRecv(p, resp)
	if l.chain.unchecked {
		*l.torn++
		if l.verdict != Yes {
			panic(fmt.Sprintf("process %d reported %v on a torn set", p.ID, l.verdict))
		}
	}
}

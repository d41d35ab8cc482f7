package monitor

// Over an atomic board, the processes of every board logic feed one shared
// chain; perProcess builds the same monitor with a chain per process, as the
// AADGMS and collect boards always have. Every verdict is a function of the
// process's collected set and of its own past (ecled's sticky flag and
// divergence test, SEC's Figure 5 half), so the two must report the same
// run: these tests compare them for V_O over language,
// object and message-passing services, board kinds, crash schedules and both
// Aτ array kinds, check every V_O round that the chain a process fed holds
// exactly its snapshot's set and carries that set's sketch, and compare the
// EC-ledger candidate, the naive-order and consensus-order baselines and
// Figure 9's two SEC deciders the same way, over bare and Aτ-wrapped
// services and biased and random schedules.

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

// boardOf returns the triple board a board logic publishes on.
func boardOf(l Logic) *tripleBoard {
	switch l := l.(type) {
	case *predictiveLogic:
		return l.board
	case *ecledLogic:
		return l.board
	case *naiveOrderLogic:
		return l.board
	case *consensusLogic:
		return l.board
	case *secLogic:
		return l.board
	case *threeValuedSECLogic:
		return l.sec.board
	}
	panic(fmt.Sprintf("boardOf: %T publishes on no triple board", l))
}

// perProcess is m with a chain per process on every board kind, an atomic
// one included: the reference the one chain an atomic board's processes
// share is compared with. The logics attach their board after New, so
// clearing shared here decides how many chains it claims.
func perProcess(m Monitor) Monitor {
	return NewMonitor(m.Name()+"/per-process", func(n int) []Logic {
		logics := m.New(n)
		for _, l := range logics {
			boardOf(l).shared = false
		}
		return logics
	})
}

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
func runChains(c chainCase, seed int64, board adversary.ArrayKind, sch schedule, sc, shared bool, unbuilt *int, fail func(string)) *Result {
	return runCase(c, seed, sch, func(tau *adversary.Timed) Monitor {
		m := NewLin(c.obj, tau, board)
		if sc {
			m = NewSC(c.obj, tau, board)
		}
		if !shared {
			m = perProcess(m)
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

// schedule is how a differential run drives its case.
type schedule struct {
	tauKind adversary.ArrayKind // the array kind of the Aτ wrapping the service
	untimed bool                // run the bare service, with no Aτ
	random  bool                // a random schedule where the default biases toward the service's cursor
	crash   map[int][]int
	steps   int
}

func (s schedule) String() string {
	svc := "Aτ=" + s.tauKind.String()
	if s.untimed {
		svc = "bare"
	}
	pol := "default"
	if s.random {
		pol = "random"
	}
	return fmt.Sprintf("%s policy=%s crash=%v steps=%d", svc, pol, s.crash, s.steps)
}

// runCase runs the monitor mk builds against the case's service, wrapped in
// an Aτ over sch.tauKind unless sch.untimed is set (mk then gets a nil Aτ).
// The schedule is bursty over a collect-backed Aτ, random where the service
// has no cursor or sch.random is set, and biased toward the cursor
// otherwise.
func runCase(c chainCase, seed int64, sch schedule, mk func(*adversary.Timed) Monitor) *Result {
	inner, register := c.service(seed)
	svc, tau := inner, (*adversary.Timed)(nil)
	if !sch.untimed {
		tau = adversary.NewTimed(testProcs, inner, sch.tauKind)
		svc = tau
	}
	return Run(Config{
		N:       testProcs,
		Monitor: mk(tau),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return svc, register(rt)
		},
		Policy: func(aux []int) sched.Policy {
			switch {
			case !sch.untimed && sch.tauKind == adversary.ArrayCollect:
				// Incomparable views need one process's collect to stall
				// while others announce, which bursts produce.
				return sched.BurstyFrom(rand.New(rand.NewSource(seed)), 5)
			case len(aux) == 0 || sch.random:
				return sched.Random(seed)
			}
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: sch.steps,
		Crash:    sch.crash,
	})
}

// diffRuns describes the first difference between two runs' verdict
// streams, or returns "" if they report the same.
func diffRuns(one, each *Result) string {
	switch {
	case !reflect.DeepEqual(one.Verdicts, each.Verdicts):
		return fmt.Sprintf("one chain reported\n%v\nper-process chains\n%v", one.Verdicts, each.Verdicts)
	case !reflect.DeepEqual(one.StepAt, each.StepAt):
		return fmt.Sprintf("verdict steps differ:\n%v\n%v", one.StepAt, each.StepAt)
	case !reflect.DeepEqual(one.HistAt, each.HistAt):
		return fmt.Sprintf("verdict history lengths differ:\n%v\n%v", one.HistAt, each.HistAt)
	case !one.History.Equal(each.History):
		return fmt.Sprintf("histories differ:\n%v\n%v", one.History, each.History)
	}
	return ""
}

// chainsAgree runs V_O over the case as the monitor builds it and with a
// chain per process, and returns a description of the first difference
// between the two runs or between a chain and its process's set, or "" if
// none; it also returns the monitor's own run and counts its unbuilt
// sketches in unbuilt.
func chainsAgree(c chainCase, seed int64, board adversary.ArrayKind, sch schedule, sc bool, unbuilt *int) (string, *Result) {
	var bad string
	fail := func(msg string) {
		if bad == "" {
			bad = msg
		}
	}
	one := runChains(c, seed, board, sch, sc, true, unbuilt, fail)
	each := runChains(c, seed, board, sch, sc, false, new(int), fail)
	if bad == "" {
		bad = diffRuns(one, each)
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
							sch := schedule{tauKind: tauKind, crash: crash, steps: c.steps}
							bad, res := chainsAgree(c, seed, board, sch, sc, &unbuilt)
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

// boardLogic is a board logic other than V_O: mk builds its monitor over a
// board of the given kind, for the case's object and Aτ, and cases are the
// services it is compared on. A timed logic needs Aτ's views; the others
// also run on the bare service, where mk gets a nil Aτ.
type boardLogic struct {
	name  string
	timed bool
	mk    func(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor
	cases []chainCase
}

// withSteps is c with its runs bounded by steps.
func withSteps(c chainCase, steps int) chainCase {
	c.steps = steps
	return c
}

// boardLogics are the board logics the differential compares, each with
// correct and faulty services of its object, so the runs report both
// answers. The naive-order runs stay short: its per-round
// sequential-consistency search has no real-time edges to prune it.
var boardLogics = []boardLogic{
	{
		name: "ecled",
		mk:   func(_ trace.Object, _ *adversary.Timed, kind adversary.ArrayKind) Monitor { return NewECLed(kind) },
		cases: []chainCase{
			langCase(lang.ECLed(), 0),
			langCase(lang.ECLed(), 1),
			langCase(lang.ECLed(), 2),
			implCase("ledger/lock", trace.Ledger(), func(int) sut.Impl { return sut.NewLockLedger() }),
			implCase("ledger/forked", trace.Ledger(), func(n int) sut.Impl { return sut.NewForkedLedger(n) }),
			implCase("ledger/lossy", trace.Ledger(), func(int) sut.Impl { return sut.NewLossyLedger(3) }),
		},
	},
	{
		name: "naive-order",
		mk: func(obj trace.Object, _ *adversary.Timed, kind adversary.ArrayKind) Monitor {
			return NewNaiveOrder(obj, kind)
		},
		cases: []chainCase{
			withSteps(langCase(lang.SCReg(), 0), 600),
			withSteps(langCase(lang.SCReg(), 3), 600),
			withSteps(langCase(lang.SCLed(), 1), 600),
			withSteps(langCase(lang.SCLed(), 2), 600),
			withSteps(implCase("register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }), 1200),
			withSteps(implCase("queue/lifo", trace.Queue(), func(int) sut.Impl { return sut.NewLIFOQueue() }), 1200),
		},
	},
	{
		name: "consensus-order",
		mk: func(obj trace.Object, _ *adversary.Timed, kind adversary.ArrayKind) Monitor {
			return NewConsensusOrder(obj, kind)
		},
		cases: consensusCases,
	},
	{
		name:  "sec",
		timed: true,
		mk:    func(_ trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor { return NewSEC(tau, kind) },
		cases: secCases,
	},
	{
		name:  "sec-3valued",
		timed: true,
		mk: func(_ trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
			return ThreeValuedSEC(tau, kind)
		},
		cases: secCases,
	},
}

// consensusCases are the consensus-order baseline's services.
var consensusCases = []chainCase{
	langCase(lang.LinReg(), 0),
	langCase(lang.LinReg(), 2),
	langCase(lang.LinReg(), 3),
	langCase(lang.LinLed(), 1),
	langCase(lang.LinLed(), 2),
	implCase("register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }),
	implCase("queue/lifo", trace.Queue(), func(int) sut.Impl { return sut.NewLIFOQueue() }),
}

// secCases are the SEC deciders' services: every SEC_COUNT source, and a
// correct and an over-reading counter.
var secCases = []chainCase{
	langCase(lang.SECCount(), 0),
	langCase(lang.SECCount(), 1),
	langCase(lang.SECCount(), 2),
	langCase(lang.SECCount(), 3),
	langCase(lang.SECCount(), 4),
	langCase(lang.SECCount(), 5),
	implCase("counter/snapshot", trace.Counter(), func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAtomic) }),
	implCase("counter/inflated", trace.Counter(), func(n int) sut.Impl { return sut.NewInflatedCounter(n, 1) }),
}

// logicsAgree runs the board logic over the case as its monitor builds it
// and with a chain per process, and returns a description of the first
// difference between the two runs, or "" if none; it also returns the
// monitor's own run.
func logicsAgree(bl boardLogic, c chainCase, seed int64, board adversary.ArrayKind, sch schedule) (string, *Result) {
	mk := func(tau *adversary.Timed) Monitor { return bl.mk(c.obj, tau, board) }
	one := runCase(c, seed, sch, mk)
	each := runCase(c, seed, sch, func(tau *adversary.Timed) Monitor { return perProcess(mk(tau)) })
	return diffRuns(one, each), one
}

// TestOneChainMatchesPerProcessForBoardLogics is the differential for every
// board logic other than V_O over its cases, on bare services (where the
// logic takes them) and on atomic- and collect-backed Aτ, under biased and
// random schedules, seeds and crash schedules. The AADGMS and collect
// boards, where the monitors keep a chain per process, run the first seed
// only.
func TestOneChainMatchesPerProcessForBoardLogics(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, bl := range boardLogics {
		runs, verdicts, nos := 0, 0, 0
		for _, board := range arrayKinds {
			seeds := seeds
			if board != adversary.ArrayAtomic {
				seeds = seeds[:1]
			}
			for _, c := range bl.cases {
				for _, sch := range logicSchedules(bl.timed, c) {
					for _, seed := range seeds {
						bad, res := logicsAgree(bl, c, seed, board, sch)
						if bad != "" {
							t.Fatalf("%s %s board=%s %v seed %d: %s", bl.name, c.name, board, sch, seed, bad)
						}
						runs++
						for _, vs := range res.Verdicts {
							verdicts += len(vs)
						}
						nos += res.TotalNO()
					}
				}
			}
		}
		t.Logf("%s: %d runs, %d verdicts, %d NO", bl.name, runs, verdicts, nos)
		if nos == 0 || nos == verdicts {
			t.Errorf("%s: %d NO among %d verdicts: the runs must exercise both answers", bl.name, nos, verdicts)
		}
	}
}

// logicSchedules are the schedules the differential runs a board logic
// over the case with: the bare service (unless the logic is timed) and an
// atomic- and a collect-backed Aτ, biased and random, each with every crash
// schedule.
func logicSchedules(timed bool, c chainCase) []schedule {
	var out []schedule
	for _, base := range []schedule{
		{untimed: true},
		{tauKind: adversary.ArrayAtomic},
		{tauKind: adversary.ArrayCollect},
	} {
		if base.untimed && timed {
			continue
		}
		for _, random := range []bool{false, true} {
			for _, crash := range chainCrashes {
				sch := base
				sch.random, sch.crash, sch.steps = random, crash, c.steps
				out = append(out, sch)
			}
		}
	}
	return out
}

// FuzzOneChainMatchesPerProcess is the differential over fuzzed board
// logics, cases, board and Aτ kinds, seeds, crash schedules, schedules and
// step bounds. Logic 0 is V_O, with NewSC if sc is set; logic i > 0 is
// boardLogics[(i-1) % len(boardLogics)], where ci picks among its cases.
func FuzzOneChainMatchesPerProcess(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint16(150), uint8(1), false, false, uint16(900), uint8(0), false, false)
	f.Add(uint8(12), uint8(0), int64(2), uint16(40), uint8(0), true, true, uint16(1500), uint8(0), false, false)
	f.Add(uint8(18), uint8(1), int64(3), uint16(0), uint8(0), false, false, uint16(3000), uint8(0), false, false)
	for i := range boardLogics {
		f.Add(uint8(i), uint8(0), int64(i+1), uint16(150), uint8(i), false, false, uint16(1500), uint8(i+1), i%2 == 0, i < 3)
	}
	f.Fuzz(func(t *testing.T, ci, bi uint8, seed int64, crashAt uint16, crashProc uint8, sc, collect bool, steps uint16, li uint8, random, untimed bool) {
		board := arrayKinds[int(bi)%len(arrayKinds)]
		sch := schedule{tauKind: adversary.ArrayAtomic, random: random}
		if crashAt > 0 {
			sch.crash = map[int][]int{int(crashAt) % 2000: {int(crashProc) % testProcs}}
		}
		if collect {
			sch.tauKind = adversary.ArrayCollect
		}
		if li == 0 {
			c := chainCases[int(ci)%len(chainCases)]
			sch.steps = 1 + int(steps)%c.steps
			if bad, _ := chainsAgree(c, seed, board, sch, sc, new(int)); bad != "" {
				t.Fatalf("%s board=%s %v sc=%v seed %d: %s", c.name, board, sch, sc, seed, bad)
			}
			return
		}
		bl := boardLogics[int(li-1)%len(boardLogics)]
		c := bl.cases[int(ci)%len(bl.cases)]
		sch.steps = 1 + int(steps)%c.steps
		sch.untimed = untimed && !bl.timed
		if bad, _ := logicsAgree(bl, c, seed, board, sch); bad != "" {
			t.Fatalf("%s %s board=%s %v seed %d: %s", bl.name, c.name, board, sch, seed, bad)
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
			sch := schedule{tauKind: adversary.ArrayCollect, steps: c.steps}
			got := runCase(c, seed, sch, func(tau *adversary.Timed) Monitor {
				m := NewLin(c.obj, tau, adversary.ArrayCollect)
				return NewMonitor("torn-"+m.Name(), func(n int) []Logic {
					logics := m.New(n)
					for i, l := range logics {
						logics[i] = &tornCounter{predictiveLogic: l.(*predictiveLogic), torn: &torn}
					}
					return logics
				})
			})
			want := runCase(c, seed, sch, func(tau *adversary.Timed) Monitor {
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

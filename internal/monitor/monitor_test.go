package monitor

import (
	"flag"
	"os"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/sched"
)

const (
	testProcs  = 3
	testWindow = 4
)

// testSteps bounds untimed runs (cheap per-round logic); timedSteps bounds
// runs of the predictive monitors, whose per-round history check grows with
// the history; naiveSteps bounds runs of the naive baseline, whose per-round
// sequential-consistency search has no real-time edges to prune it and is
// exponential in the worst case. TestMain shrinks all four under -short; the
// decidability proxies stay sound, just coarser.
var (
	testSteps  = 30_000
	timedSteps = 4_000
	naiveSteps = 1_200
	scSteps    = 1_500
)

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		testSteps, timedSteps, naiveSteps, scSteps = 6_000, 800, 400, 300
	}
	os.Exit(m.Run())
}

// runUntimed executes the monitor against the plain adversary A exhibiting
// the source's word.
func runUntimed(m Monitor, src adversary.Source, seed int64) *Result {
	return runUntimedSteps(m, src, seed, testSteps)
}

func runUntimedSteps(m Monitor, src adversary.Source, seed int64, steps int) *Result {
	adv := adversary.NewA(testProcs, src)
	return Run(Config{
		N:       testProcs,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return adv, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
	})
}

// runTimed executes a monitor-factory (which needs the timed adversary)
// against Aτ wrapping A.
func runTimed(mk func(tau *adversary.Timed) Monitor, src adversary.Source, seed int64) (*Result, *adversary.Timed) {
	return runTimedSteps(mk, src, seed, timedSteps)
}

func runTimedSteps(mk func(tau *adversary.Timed) Monitor, src adversary.Source, seed int64, steps int) (*Result, *adversary.Timed) {
	adv := adversary.NewA(testProcs, src)
	tau := adversary.NewTimed(testProcs, adv, adversary.ArrayAtomic)
	res := Run(Config{
		N:       testProcs,
		Monitor: mk(tau),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
	})
	return res, tau
}

// timedEval returns the Eval of a run of l against tau: l's judge, x(E) and
// the run's sketch, which must build.
func timedEval(t *testing.T, class core.Class, l lang.Lang, res *Result, tau *adversary.Timed) core.Eval {
	sketch := core.SketchOf(res, tau.InvAt)
	return core.Eval{Class: class, Window: testWindow, Judge: l.Judge, Word: res.History, Sketch: func(covered bool) (trace.Word, error) {
		sk, err := sketch(covered)
		if err != nil {
			t.Fatalf("sketch: %v", err)
		}
		return sk, nil
	}}
}

func TestFig5WECIsWAD(t *testing.T) {
	// Lemma 5.3 upper half: Figure 5 weakly-all decides WEC_COUNT. Every
	// labelled source must satisfy the WAD conditions.
	wec := lang.WECCount()
	for _, seed := range []int64{1, 2} {
		for _, lb := range wec.Sources(testProcs, seed) {
			res := runUntimed(NewWEC(adversary.ArrayAtomic), lb.New(), seed)
			ev := core.Eval{Class: core.WAD, Window: testWindow, Judge: wec.Judge, Word: res.History}
			if err := ev.Check(res, lb.In); err != nil {
				t.Errorf("seed %d source %s (in=%v): %v", seed, lb.Name, lb.In, err)
			}
		}
	}
}

func TestFig3AmplifiedWECIsWD(t *testing.T) {
	// Lemma 4.2 applied to Figure 5: the amplified monitor weakly decides
	// WEC_COUNT — every process reports NO infinitely often on bad words.
	wec := lang.WECCount()
	m := AmplifyWAD(NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic)
	for _, lb := range wec.Sources(testProcs, 7) {
		res := runUntimed(m, lb.New(), 7)
		ev := core.Eval{Class: core.WD, Window: testWindow, Judge: wec.Judge, Word: res.History}
		if err := ev.Check(res, lb.In); err != nil {
			t.Errorf("source %s (in=%v): %v", lb.Name, lb.In, err)
		}
	}
}

func TestFig8LinRegisterIsPSD(t *testing.T) {
	// Theorem 6.2 for the register: V_O predictively strongly decides
	// LIN_REG against Aτ.
	lr := lang.LinReg()
	for _, lb := range lr.Sources(testProcs, 3) {
		var tau *adversary.Timed
		res, gotTau := runTimed(func(tt *adversary.Timed) Monitor {
			tau = tt
			return NewLin(trace.Register(), tt, adversary.ArrayAtomic)
		}, lb.New(), 3)
		_ = gotTau
		ev := timedEval(t, core.PSD, lr, res, tau)
		if err := ev.Check(res, lb.In); err != nil {
			t.Errorf("source %s (in=%v): %v\nhistory: %v", lb.Name, lb.In, err, res.History)
		}
	}
}

func TestFig8LinLedgerIsPSD(t *testing.T) {
	ll := lang.LinLed()
	for _, lb := range ll.Sources(testProcs, 4) {
		var tau *adversary.Timed
		res, _ := runTimed(func(tt *adversary.Timed) Monitor {
			tau = tt
			return NewLin(trace.Ledger(), tt, adversary.ArrayAtomic)
		}, lb.New(), 4)
		ev := timedEval(t, core.PSD, ll, res, tau)
		if err := ev.Check(res, lb.In); err != nil {
			t.Errorf("source %s (in=%v): %v", lb.Name, lb.In, err)
		}
	}
}

func TestFig8SCRegisterIsPSD(t *testing.T) {
	// Table 1: SC_REG ∈ PSD via the same construction with the SC check.
	// Runs are shorter than the LIN variant's: the sequential-consistency
	// search has no real-time edges to prune it and is exponential in the
	// worst case.
	sr := lang.SCReg()
	for _, lb := range sr.Sources(testProcs, 5) {
		var tau *adversary.Timed
		res, _ := runTimedSteps(func(tt *adversary.Timed) Monitor {
			tau = tt
			return NewSC(trace.Register(), tt, adversary.ArrayAtomic)
		}, lb.New(), 5, scSteps)
		ev := timedEval(t, core.PSD, sr, res, tau)
		if err := ev.Check(res, lb.In); err != nil {
			t.Errorf("source %s (in=%v): %v\nhistory: %v", lb.Name, lb.In, err, res.History)
		}
	}
}

func TestFig9SECIsPWD(t *testing.T) {
	// Lemma 6.4: the Figure 9 monitor (amplified per Lemma 4.2 so that all
	// processes report NO on bad words) predictively weakly decides
	// SEC_COUNT against Aτ.
	sec := lang.SECCount()
	for _, lb := range sec.Sources(testProcs, 6) {
		var tau *adversary.Timed
		res, _ := runTimed(func(tt *adversary.Timed) Monitor {
			tau = tt
			return AmplifyWAD(NewSEC(tt, adversary.ArrayAtomic), adversary.ArrayAtomic)
		}, lb.New(), 6)
		ev := timedEval(t, core.PWD, sec, res, tau)
		if err := ev.Check(res, lb.In); err != nil {
			t.Errorf("source %s (in=%v): %v\nhistory: %v", lb.Name, lb.In, err, res.History)
		}
	}
}

func TestFig9DetectsOverRead(t *testing.T) {
	// The clause-4 over-read is invisible to Figure 5 but caught by Figure
	// 9's view test: the dedicated regression for the SEC/WEC separation.
	sec := lang.SECCount()
	var overRead adversary.Labeled
	for _, lb := range sec.Sources(testProcs, 1) {
		if lb.Name == "over-read" {
			overRead = lb
		}
	}
	if overRead.New == nil {
		t.Fatal("over-read source missing")
	}
	res, _ := runTimed(func(tt *adversary.Timed) Monitor {
		return NewSEC(tt, adversary.ArrayAtomic)
	}, overRead.New(), 1)
	if res.TotalNO() == 0 {
		t.Error("Figure 9 monitor missed the clause-4 violation")
	}
	for p := 0; p < testProcs; p++ {
		if !res.NOInTail(p, testWindow) {
			t.Errorf("clause-4 violation should persist for process %d", p)
		}
	}
	// Figure 5 alone converges on the same word (it is weakly consistent).
	resWEC := runUntimed(NewWEC(adversary.ArrayAtomic), overRead.New(), 1)
	for p := 0; p < testProcs; p++ {
		if resWEC.NOInTail(p, testWindow) {
			t.Errorf("Figure 5 should accept the over-read word, process %d still NOs", p)
		}
	}
}

// onceNo is a test monitor that reports NO exactly once, on process 0's
// third report, and YES otherwise.
type onceNoLogic struct {
	id     int
	rounds int
}

func (l *onceNoLogic) PreSend(*sched.Proc, trace.Symbol)    {}
func (l *onceNoLogic) PostRecv(*sched.Proc, trace.Response) {}
func (l *onceNoLogic) Decide(*sched.Proc) Verdict {
	l.rounds++
	if l.id == 0 && l.rounds == 3 {
		return No
	}
	return Yes
}

func onceNo() Monitor {
	return NewMonitor("once-no", func(n int) []Logic {
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &onceNoLogic{id: i}
		}
		return logics
	})
}

func TestFig2StabilizePropagatesNO(t *testing.T) {
	// Lemma 4.1's property: if any process ever reports NO, eventually every
	// process always reports NO.
	wec := lang.WECCount()
	src := wec.Sources(testProcs, 9)[0] // any infinite behaviour
	res := runUntimed(Stabilize(onceNo()), src.New(), 9)
	if res.NOCount(0) == 0 {
		t.Fatal("inner NO never fired")
	}
	for p := 0; p < testProcs; p++ {
		v := res.Verdicts[p]
		if len(v) < 6 {
			t.Fatalf("process %d reported only %d times", p, len(v))
		}
		for k, d := range v[len(v)-3:] {
			if d != No {
				t.Errorf("process %d tail verdict %d = %v, want NO", p, k, d)
			}
		}
	}
}

func TestFig2NoFalseNO(t *testing.T) {
	// Stabilize must not invent NOs: wrapping an always-YES monitor yields
	// only YES.
	wec := lang.WECCount()
	src := wec.Sources(testProcs, 9)[0]
	res := runUntimed(Stabilize(Constant(Yes)), src.New(), 11)
	if res.TotalNO() != 0 {
		t.Error("stabilized constant-YES monitor reported NO")
	}
}

func TestFig4AmplifyWOD(t *testing.T) {
	// Lemma 4.3's property: if some process reports NO only finitely often,
	// eventually every process always reports YES.
	wec := lang.WECCount()
	src := wec.Sources(testProcs, 9)[0]
	res := runUntimed(AmplifyWOD(onceNo(), adversary.ArrayAtomic), src.New(), 13)
	for p := 0; p < testProcs; p++ {
		if res.NOInTail(p, testWindow) {
			t.Errorf("process %d still reports NO though the inner monitor stabilized", p)
		}
	}
	// And with an inner monitor that never stops NOing anywhere, everyone
	// keeps reporting NO.
	res = runUntimed(AmplifyWOD(Constant(No), adversary.ArrayAtomic), src.New(), 13)
	for p := 0; p < testProcs; p++ {
		if !res.NOInTail(p, testWindow) {
			t.Errorf("process %d stopped reporting NO though the inner monitor never did", p)
		}
	}
}

func TestThreeValuedWEC(t *testing.T) {
	// Section 7: the three-valued variant never reports NO on words in the
	// language and never reports YES on words outside it.
	wec := lang.WECCount()
	for _, lb := range wec.Sources(testProcs, 21) {
		res := runUntimed(ThreeValuedWEC(adversary.ArrayAtomic), lb.New(), 21)
		yes, no := 0, 0
		for p := range res.Verdicts {
			for _, d := range res.Verdicts[p] {
				switch d {
				case Yes:
					yes++
				case No:
					no++
				}
			}
		}
		if lb.In && no > 0 {
			t.Errorf("source %s: 3-valued monitor reported NO on a word in the language", lb.Name)
		}
		if !lb.In && yes > 0 {
			t.Errorf("source %s: 3-valued monitor reported YES on a word outside the language", lb.Name)
		}
	}
}

func TestNaiveOrderBlindToRealTime(t *testing.T) {
	// The naive monitor accepts the stale-read register behaviour (which is
	// outside LIN_REG) — real-time violations are invisible without views.
	lr := lang.LinReg()
	var stale, phantom adversary.Labeled
	for _, lb := range lr.Sources(testProcs, 2) {
		switch lb.Name {
		case "stale-reads":
			stale = lb
		case "phantom":
			phantom = lb
		}
	}
	res := runUntimedSteps(NewNaiveOrder(trace.Register(), adversary.ArrayAtomic), stale.New(), 2, naiveSteps)
	if res.TotalNO() != 0 {
		t.Error("naive monitor cannot distinguish stale reads, yet reported NO")
	}
	// It still catches order-free violations.
	res = runUntimedSteps(NewNaiveOrder(trace.Register(), adversary.ArrayAtomic), phantom.New(), 2, naiveSteps)
	if res.TotalNO() == 0 {
		t.Error("naive monitor missed a value never written")
	}
}

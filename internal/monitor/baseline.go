package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/sched"
)

// Constant returns a monitor whose processes always report the given value.
// The degenerate candidates in impossibility experiments.
func Constant(v Verdict) Monitor {
	return NewMonitor("constant-"+v.String(), func(n int) []Logic {
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = constantLogic{v: v}
		}
		return logics
	})
}

type constantLogic struct {
	v Verdict
}

func (constantLogic) PreSend(*sched.Proc, trace.Symbol)    {}
func (constantLogic) PostRecv(*sched.Proc, trace.Response) {}
func (l constantLogic) Decide(*sched.Proc) Verdict         { return l.v }

// NewNaiveOrder returns the strongest monitor available against the plain
// adversary A for order-sensitive languages: processes share their observed
// (invocation, response) pairs and check whether the collected operations
// admit any valid sequential order respecting per-process order — i.e. a
// sequential-consistency check, the most a monitor can verify without
// real-time information. Against LIN_O it is sound but inherently incomplete:
// the Lemma 5.1 experiment shows its verdicts are identical on a linearizable
// execution and a non-linearizable one, as Theorem 5.2 predicts for every
// monitor.
func NewNaiveOrder(obj trace.Object, kind adversary.ArrayKind) Monitor {
	return NewMonitor("naive-order/"+obj.Name()+"/"+kind.String(), func(n int) []Logic {
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &naiveOrderLogic{n: n, obj: obj, board: board}
		}
		return logics
	})
}

type naiveOrderLogic struct {
	n     int
	obj   trace.Object
	board *tripleBoard
	pool  *check.Pool // the session's checker pool

	inv     trace.Symbol
	verdict Verdict
}

// attach attaches the board and takes the session's checker pool.
func (l *naiveOrderLogic) attach(sc *scratch, _ int) {
	l.board.attach(sc)
	l.pool = sc.checks
}

func (l *naiveOrderLogic) PreSend(_ *sched.Proc, inv trace.Symbol) { l.inv = inv }

// PostRecv publishes the operation and feeds its chain's checker, borrowed
// at the chain's first feed of the run, the chain's newly collected
// triples. Sequential consistency ignores cross-process order, so the fed
// word — the collected triples in collection order — checks exactly as the
// most permissive history consistent with what is known, the one with
// every invocation before every response. Per-process order is kept
// because the board delivers each writer's triples in its log order, which
// is the order of their indices.
func (l *naiveOrderLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	c := l.board.publish(p, trace.Triple{ID: resp.ID, Inv: l.inv, Res: resp.Sym})
	if c.chk == nil {
		c.chk = l.pool.Get(l.obj, false, l.n)
	}
	for _, tr := range c.delta {
		c.chk.Append(tr.Inv)
		c.chk.Append(tr.Res)
	}
	if c.chk.OK() {
		l.verdict = Yes
	} else {
		l.verdict = No
	}
}

func (l *naiveOrderLogic) Decide(*sched.Proc) Verdict { return l.verdict }

// ThreeValuedWEC is the Section 7 adaptation of Figure 5 to the three-valued
// weak-decidability variant: NO is reserved for prefix-determined violations
// of the safety clauses (1)–(2), everything else reports MAYBE. If the
// behaviour is in WEC_COUNT no process ever reports NO; if it is not, no
// process ever reports YES.
func ThreeValuedWEC(kind adversary.ArrayKind) Monitor {
	return NewMonitor("wec-3valued/"+kind.String(), func(n int) []Logic {
		incs := adversary.NewArray(kind, n)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &threeValuedLogic{wec: wecLogic{incs: incs}}
		}
		return logics
	})
}

type threeValuedLogic struct {
	wec wecLogic
}

func (l *threeValuedLogic) attach(sc *scratch, i int) { l.wec.attach(sc, i) }

func (l *threeValuedLogic) PreSend(p *sched.Proc, inv trace.Symbol) { l.wec.PreSend(p, inv) }
func (l *threeValuedLogic) PostRecv(p *sched.Proc, r trace.Response) {
	l.wec.PostRecv(p, r)
}

func (l *threeValuedLogic) Decide(p *sched.Proc) Verdict {
	l.wec.Decide(p) // for its side effects: the safety flag and the previous round
	if l.wec.flag {
		// Safety clause violated: this is conclusive.
		return No
	}
	return Maybe
}

// ThreeValuedSEC is the analogous Section 7 variant for the predictive-weak
// class: NO only on safety clauses (1)–(2) and the view-witnessed clause (4),
// MAYBE otherwise.
func ThreeValuedSEC(tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return NewMonitor("sec-3valued/"+kind.String(), func(n int) []Logic {
		incs := adversary.NewArray(kind, n)
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &threeValuedSECLogic{
				sec: secLogic{wec: wecLogic{incs: incs}, board: board, tau: tau},
			}
		}
		return logics
	})
}

type threeValuedSECLogic struct {
	sec secLogic
}

func (l *threeValuedSECLogic) attach(sc *scratch, i int) { l.sec.attach(sc, i) }

func (l *threeValuedSECLogic) PreSend(p *sched.Proc, inv trace.Symbol) { l.sec.PreSend(p, inv) }
func (l *threeValuedSECLogic) PostRecv(p *sched.Proc, r trace.Response) {
	l.sec.PostRecv(p, r)
}

func (l *threeValuedSECLogic) Decide(p *sched.Proc) Verdict {
	l.sec.Decide(p)
	if l.sec.wec.flag || l.sec.clause4 {
		return No
	}
	return Maybe
}

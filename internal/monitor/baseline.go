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
	return NewMonitor("naive-order/"+obj.Name()+"/"+kindName(kind), func(n int) []Logic {
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &naiveOrderLogic{obj: obj, board: board}
		}
		return logics
	})
}

type naiveOrderLogic struct {
	obj   trace.Object
	board *tripleBoard

	inv     trace.Symbol
	count   int
	tbuf    []trace.Triple // publish's delta buffer, reused per round
	all     []trace.Triple // every collected triple
	verdict Verdict
}

func (l *naiveOrderLogic) PreSend(_ *sched.Proc, inv trace.Symbol) { l.inv = inv }

func (l *naiveOrderLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	id := resp.ID
	if id == (trace.OpID{}) {
		id = trace.OpID{Proc: p.ID, Idx: l.count}
	}
	l.count++
	l.tbuf = l.board.publish(p, trace.Triple{ID: id, Inv: l.inv, Res: resp.Sym}, l.tbuf)
	l.all = append(l.all, l.tbuf...)
	// Build the most permissive history consistent with what is known:
	// per-process order only — all cross-process pairs concurrent.
	h := orderFreeWord(l.all)
	if check.SeqConsistent(l.obj, h) {
		l.verdict = Yes
	} else {
		l.verdict = No
	}
}

func (l *naiveOrderLogic) Decide(*sched.Proc) Verdict { return l.verdict }

// orderFreeWord lays out the collected operations with every invocation
// before every response, erasing all cross-process real-time order while
// keeping per-process operation order (IDs are per-process indices). The
// order of the triples does not matter.
func orderFreeWord(triples []trace.Triple) trace.Word {
	byProc := map[int][]trace.Triple{}
	maxProc := 0
	for _, tr := range triples {
		byProc[tr.ID.Proc] = append(byProc[tr.ID.Proc], tr)
		if tr.ID.Proc > maxProc {
			maxProc = tr.ID.Proc
		}
	}
	var out trace.Word
	for p := 0; p <= maxProc; p++ {
		trs := byProc[p]
		// Per-process order by identifier index; one operation at a time so
		// the local word alternates invocation/response.
		for i := 0; i < len(trs); i++ {
			for _, tr := range trs {
				if tr.ID.Idx == i {
					out = append(out, tr.Inv, tr.Res)
				}
			}
		}
	}
	return out
}

// ThreeValuedWEC is the Section 7 adaptation of Figure 5 to the three-valued
// weak-decidability variant: NO is reserved for prefix-determined violations
// of the safety clauses (1)–(2), everything else reports MAYBE. If the
// behaviour is in WEC_COUNT no process ever reports NO; if it is not, no
// process ever reports YES.
func ThreeValuedWEC(kind adversary.ArrayKind) Monitor {
	return NewMonitor("wec-3valued/"+kindName(kind), func(n int) []Logic {
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

func (l *threeValuedLogic) PreSend(p *sched.Proc, inv trace.Symbol) { l.wec.PreSend(p, inv) }
func (l *threeValuedLogic) PostRecv(p *sched.Proc, r trace.Response) {
	l.wec.PostRecv(p, r)
}

func (l *threeValuedLogic) Decide(p *sched.Proc) Verdict {
	d := l.wec.Decide(p)
	if l.wec.flag {
		// Safety clause violated: this is conclusive.
		return No
	}
	_ = d
	return Maybe
}

// ThreeValuedSEC is the analogous Section 7 variant for the predictive-weak
// class: NO only on safety clauses (1)–(2) and the view-witnessed clause (4),
// MAYBE otherwise.
func ThreeValuedSEC(tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return NewMonitor("sec-3valued/"+kindName(kind), func(n int) []Logic {
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

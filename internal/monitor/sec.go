package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/sched"
)

// NewSEC returns the algorithm of Figure 9, which predictively weakly
// decides SEC_COUNT (Lemma 6.4): the Figure 5 weak decider extended — in
// blue in the paper — with a shared board of (v, w, view) triples and a
// fourth test that uses views to catch reads returning more than the number
// of inc invocations visible at their response, the real-time-sensitive
// clause (4) of the strong eventual counter.
func NewSEC(tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return NewMonitor("sec-fig9/"+kind.String(), func(n int) []Logic {
		incs := adversary.NewArray(kind, n)
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &secLogic{
				wec:   wecLogic{incs: incs},
				board: board,
				tau:   tau,
			}
		}
		return logics
	})
}

// secLogic embeds the Figure 5 state and adds the view-based clause-4 test.
type secLogic struct {
	wec   wecLogic
	board *tripleBoard
	tau   *adversary.Timed

	inv     trace.Symbol
	clause4 bool // the round's chain's clause-4 flag
}

// attach attaches the Figure 5 state and the board.
func (l *secLogic) attach(sc *scratch, i int) {
	l.wec.attach(sc, i)
	l.board.attach(sc)
}

// PreSend implements Line 02 of Figure 9 (same as Figure 5).
func (l *secLogic) PreSend(p *sched.Proc, inv trace.Symbol) {
	l.inv = inv
	l.wec.PreSend(p, inv)
}

// PostRecv implements Line 05: the Figure 5 snapshot of INCS plus publishing
// the triple in M and snapshotting it. Clause 4 fires when some collected
// read returned more than the inc invocations in its view. Its flag is the
// chain's: only the chain's newly collected triples need scanning, and a
// fired flag stays fired, since a triple's view, hence its inc count, never
// changes once announced, and the set of collected triples only grows.
func (l *secLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	l.wec.PostRecv(p, resp)
	if resp.View == nil {
		panic("monitor: SEC monitor requires a timed service")
	}
	c := l.board.publish(p, trace.Triple{
		ID:   resp.ID,
		Inv:  l.inv,
		Res:  resp.Sym,
		View: *resp.View,
	})
	for _, tr := range c.delta {
		if c.clause4 {
			break
		}
		v, ok := tr.Res.Val.(trace.Int)
		c.clause4 = ok && tr.Inv.Op == trace.OpRead && tr.Res.Kind == trace.Res && int(v) > l.tau.CountOp(tr.View, trace.OpInc)
	}
	l.clause4 = c.clause4
}

// Decide implements Line 06 of Figure 9: the three Figure 5 cases, then the
// view-based clause-4 case, then YES.
func (l *secLogic) Decide(p *sched.Proc) Verdict {
	d := l.wec.Decide(p)
	if d == No {
		return No
	}
	if l.clause4 {
		return No
	}
	return Yes
}

package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/sched"
)

// NewECLed returns a best-effort monitor for the eventually consistent
// ledger EC_LED: processes share their observed operations on a board,
// report NO when the ordering clause (1) is violated on the shared
// (order-free) history, and report NO transiently when convergence lags —
// a get response that misses a record whose append was already shared at the
// process's previous round.
//
// Lemma 6.5 proves EC_LED ∉ PWD, so no monitor — this one included — can
// predictively weakly decide it. NewECLed exists to make that impossibility
// concrete: it is a sound, plausible candidate (it weakly catches every
// safety violation and flags divergence), and the adaptive attack of the
// experiment package drives exactly this monitor through an in-language word
// on which every process reports NO unboundedly often, with tight executions
// removing the sketch escape clause.
func NewECLed(kind adversary.ArrayKind) Monitor {
	return NewMonitor("ecled-candidate/"+kind.String(), func(n int) []Logic {
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &ecledLogic{board: board}
		}
		return logics
	})
}

// ecledLogic is the per-process state of the candidate EC_LED monitor; what
// it derives from the collected set is on the chain (tripleBoard).
type ecledLogic struct {
	board *tripleBoard

	inv     trace.Symbol
	flag    bool // ordering clause violated: sticky NO
	known   int  // the chain's appends the previous round's set held
	verdict Verdict
}

// attach attaches the board.
func (l *ecledLogic) attach(sc *scratch, _ int) { l.board.attach(sc) }

// PreSend implements Line 02: nothing to announce before sending (appends
// become visible when their triple is published after the response).
func (l *ecledLogic) PreSend(_ *sched.Proc, inv trace.Symbol) { l.inv = inv }

// PostRecv implements Line 05: publish the completed operation, snapshot the
// board, and evaluate the clauses. Clause (1) is order-free — its verdict on
// the collected operations does not depend on how they are laid out — so the
// round feeds the chain's checker only the chain's newly collected triples,
// and reads the clause on the set the chain now holds: a record over-used
// there may be covered by an append a later set holds, so the checker's
// answer is not sticky, and the process's flag is.
func (l *ecledLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	c := l.board.publish(p, trace.Triple{ID: resp.ID, Inv: l.inv, Res: resp.Sym})
	if c.ledger == nil {
		c.ledger = check.NewECLedger()
	}
	for _, tr := range c.delta {
		c.ledger.Append(tr.Inv)
		c.ledger.Append(tr.Res)
		if tr.Inv.Op == trace.OpAppend {
			if r, ok := tr.Inv.Val.(trace.Rec); ok {
				c.appends = append(c.appends, r)
			}
		}
	}
	known := l.known
	l.known = len(c.appends)
	if l.flag = l.flag || !c.ledger.Holds(); l.flag {
		l.verdict = No
		return
	}
	// Divergence test: if this operation was a get, it must contain every
	// record whose append the previous round's set held. Those are the
	// chain's first known appends: the chain held exactly that set then,
	// and its appends only grow.
	l.verdict = Yes
	if l.inv.Op == trace.OpGet {
		if c.got == nil {
			c.got = map[trace.Rec]bool{}
		}
		clear(c.got)
		if seq, ok := resp.Sym.Val.(trace.Seq); ok {
			for _, r := range seq {
				c.got[r] = true
			}
		}
		for _, r := range c.appends[:known] {
			if !c.got[r] {
				l.verdict = No
				break
			}
		}
	}
}

// Decide implements Line 06.
func (l *ecledLogic) Decide(*sched.Proc) Verdict {
	if l.verdict == 0 {
		return Yes
	}
	return l.verdict
}

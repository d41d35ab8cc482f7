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

// ecledLogic is the per-process state of the candidate EC_LED monitor.
type ecledLogic struct {
	board *tripleBoard

	inv     trace.Symbol
	count   int
	chk     *check.ECLedger // clause (1) over every collected triple
	flag    bool            // ordering clause violated: sticky NO
	verdict Verdict

	// prevAppends is the set of records whose append invocations were
	// visible on the board at the previous round; a get that misses one of
	// them is flagged as divergence (transient NO). The set only grows, so
	// each round adds its newly collected appends.
	prevAppends map[trace.Rec]bool
	got         map[trace.Rec]bool // the records of this round's get response
}

// attach attaches the board and claims the process's checker and record
// sets.
func (l *ecledLogic) attach(sc *scratch, i int) {
	l.board.attach(sc)
	ps := &sc.procs[i]
	l.chk = ps.ledgers.claim()
	l.chk.Reset()
	l.prevAppends = emptySet(ps.recs.claim())
	l.got = emptySet(ps.recs.claim())
}

// PreSend implements Line 02: nothing to announce before sending (appends
// become visible when their triple is published after the response).
func (l *ecledLogic) PreSend(_ *sched.Proc, inv trace.Symbol) { l.inv = inv }

// PostRecv implements Line 05: publish the completed operation, snapshot the
// board, and evaluate the clauses. Clause (1) is order-free — its verdict on
// the collected operations does not depend on how they are laid out — so the
// round feeds the checker only its newly collected triples.
func (l *ecledLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	id := resp.ID
	if id == (trace.OpID{}) {
		id = trace.OpID{Proc: p.ID, Idx: l.count}
	}
	l.count++
	delta := l.board.publish(p, trace.Triple{ID: id, Inv: l.inv, Res: resp.Sym}).delta
	for _, tr := range delta {
		l.chk.Append(tr.Inv)
		l.chk.Append(tr.Res)
	}

	if l.flag {
		l.verdict = No
		return
	}
	if !l.chk.OK() {
		l.flag = true
		l.verdict = No
		return
	}
	// Divergence test: if this operation was a get, it must contain every
	// record whose append was known a round ago.
	l.verdict = Yes
	if l.inv.Op == trace.OpGet {
		clear(l.got)
		if seq, ok := resp.Sym.Val.(trace.Seq); ok {
			for _, r := range seq {
				l.got[r] = true
			}
		}
		for r := range l.prevAppends {
			if !l.got[r] {
				l.verdict = No
				break
			}
		}
	}
	// Add this round's appends to the known-append set for the next round.
	for _, tr := range delta {
		if tr.Inv.Op == trace.OpAppend {
			if r, ok := tr.Inv.Val.(trace.Rec); ok {
				l.prevAppends[r] = true
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

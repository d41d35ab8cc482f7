package monitor

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// tripleBoard is the shared array M of Figures 8 and 9: each process owns an
// append-only log of observed (invocation, response, view) triples and
// publishes its length through a shared counts array, so a snapshot of the
// counts plus the immutable log prefixes reconstructs everyone's sets.
type tripleBoard struct {
	counts mem.Array[int]
	logs   [][]trace.Triple
	seen   []int // seen[i*n+j]: how much of log j process i has collected
}

func newTripleBoard(n int, kind adversary.ArrayKind) *tripleBoard {
	return &tripleBoard{
		counts: adversary.NewArray(kind, n),
		logs:   make([][]trace.Triple, n),
		seen:   make([]int, n*n),
	}
}

// publish appends the process's triple and makes it visible; then snapshots
// the board (Figure 8, Line 05) and returns the published triples this
// process had not collected yet — its own among them. The union of a
// process's deltas is the full published set of its latest snapshot, because
// a process's successive snapshot counts are pointwise non-decreasing for
// every ArrayKind: counts only grow, and each snapshot is atomic (ArrayAtomic),
// linearizable (ArrayAADGMS), or a collect reading every cell after the
// previous collect read it (ArrayCollect). A decrease is a bug in the array,
// and panics. The triples are collected into buf, which each logic retains
// and hands back every round, so the collection stops allocating once the
// buffer has grown to the largest delta.
func (b *tripleBoard) publish(p *sched.Proc, tr trace.Triple, buf []trace.Triple) []trace.Triple {
	id := p.ID
	b.logs[id] = append(b.logs[id], tr)
	b.counts.Write(p, id, len(b.logs[id]))
	snap := b.counts.Snapshot(p)
	n := len(b.logs)
	seen := b.seen[id*n : (id+1)*n]
	out := buf[:0]
	for j, c := range snap {
		if c < seen[j] {
			panic(fmt.Sprintf("monitor: process %d snapshot shows %d triples of process %d after showing %d", id, c, j, seen[j]))
		}
		out = append(out, b.logs[j][seen[j]:c]...)
		seen[j] = c
	}
	return out
}

// NewLin returns the algorithm V_O of Figure 8, which predictively strongly
// decides LIN_O for the sequential object obj (Theorem 6.2): each process
// publishes its (v, w, view) triples in M, snapshots M, builds the finite
// history h_i via Appendix B's construction and reports YES exactly when h_i
// is linearizable with respect to obj. tau must be the timed adversary the
// processes interact with (its announcement log resolves view contents);
// kind selects the implementation of M.
func NewLin(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("lin-fig8/"+obj.Name()+"/"+kindName(kind), tau, kind, obj, true)
}

// NewSC is V_O with the sequential-consistency check: the same construction
// predictively strongly decides SC_O (Table 1 rows SC_REG, SC_LED).
func NewSC(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("sc-fig8/"+obj.Name()+"/"+kindName(kind), tau, kind, obj, false)
}

func newPredictive(name string, tau *adversary.Timed, kind adversary.ArrayKind, obj trace.Object, realTime bool) Monitor {
	return NewMonitor(name, func(n int) []Logic {
		board := newTripleBoard(n, kind)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &predictiveLogic{n: n, board: board, tau: tau, obj: obj, realTime: realTime}
		}
		return logics
	})
}

// poolable is implemented by logics that can borrow per-run scratch state
// from a session-owned pool; Session.Run attaches its pool after Monitor.New.
type poolable interface {
	attachPool(*check.Pool)
}

// predictiveLogic is the per-process body of Figure 8.
type predictiveLogic struct {
	n        int
	board    *tripleBoard
	tau      *adversary.Timed
	obj      trace.Object
	realTime bool

	pool *check.Pool        // session pool, when running on a pooled session
	chk  *check.Incremental // this process's checker, borrowed lazily

	tbuf    []trace.Triple      // publish's delta buffer, reused per round
	builder trace.SketchBuilder // the sketch of every collected triple, extended per round
	same    int                 // the last round's sketch prefix unchanged since the one before

	inv     trace.Symbol
	verdict Verdict
}

// attachPool hands the logic the running session's checker pool. Logics are
// built fresh per run, so the nil chk makes the next accept borrow a reset
// (likely recycled) checker from the pool.
func (l *predictiveLogic) attachPool(p *check.Pool) {
	l.pool = p
	l.chk = nil
}

// accept decides the consistency condition on one sketch history. A
// per-process incremental checker stays alive across the verdict stream:
// successive sketch histories usually extend each other, so each round costs
// only the new suffix, and the builder's unchanged prefix spares comparing
// the rest; non-extensions (views can reorder the reconstructed past) reset
// transparently. Its verdicts are the one-shot checks' on every
// round (pinned against check.Linearizable and check.SeqConsistent by this
// package's tests).
func (l *predictiveLogic) accept(h trace.Word) bool {
	if l.chk == nil {
		if l.pool != nil {
			l.chk = l.pool.Get(l.obj, l.realTime, l.n)
		} else {
			l.chk = check.NewIncremental(l.obj, l.realTime, l.n)
		}
	}
	return l.chk.CheckExtending(h, l.same)
}

// PreSend implements Line 02: "no communication is needed before sending".
func (l *predictiveLogic) PreSend(_ *sched.Proc, inv trace.Symbol) {
	l.inv = inv
}

// PostRecv implements Line 05: publish the triple, snapshot M, build h_i and
// decide it.
func (l *predictiveLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	h, err := l.round(p, resp)
	if err != nil {
		// Incomparable views (possible only with collect-backed timed
		// adversaries) leave the process without a usable history this
		// round; Section 6.2 notes the construction in [41] handles this at
		// the cost of extra local computation. Report NO conservatively? A
		// false NO would break predictive soundness, so report the previous
		// verdict's best guess: YES keeps soundness (missed detections are
		// retried next round with fresh views).
		l.verdict = Yes
		return
	}
	if l.accept(h) {
		l.verdict = Yes
	} else {
		l.verdict = No
	}
}

// round publishes the process's triple, snapshots M and extends h_i by the
// newly collected triples, recording how much of the previous h_i it kept.
func (l *predictiveLogic) round(p *sched.Proc, resp trace.Response) (trace.Word, error) {
	if resp.View == nil {
		panic("monitor: predictive monitor requires a timed service")
	}
	l.tbuf = l.board.publish(p, trace.Triple{
		ID:   resp.ID,
		Inv:  l.inv,
		Res:  resp.Sym,
		View: *resp.View,
	}, l.tbuf)
	h, same, err := l.builder.Extend(l.n, l.tbuf, l.tau.InvAt)
	l.same = same
	return h, err
}

// Decide implements Line 06.
func (l *predictiveLogic) Decide(_ *sched.Proc) Verdict { return l.verdict }

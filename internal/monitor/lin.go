package monitor

import (
	"errors"
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
// counts plus the immutable log prefixes reconstructs everyone's sets. The
// logs, the snapshot buffers and the chains are rows the board claims from
// the session's scratch when its first logic attaches.
//
// The board owns each process's collected set S_i: a round may decide on
// S_i alone, and every logic keeps what it derives from S_i on the chain
// the round fed. Over an atomic board the processes feed one shared chain
// and still get exactly that. Each snapshot is one scheduler step, and the
// local computation after it — feeding the chain and deriving from it —
// runs within the same step, before any other process takes a snapshot. So
// the snapshots reach the chain in the order they were taken, which over an
// atomic array is containment order, and each feed brings the chain's set
// up to exactly S_i. What a logic derives from the chain then depends on
// S_i alone, provided it depends on the set and not on the order it was fed
// in; each set is then built and checked once per run, not once per
// process. The AADGMS and collect boards keep one chain per process: their
// snapshots take several steps, so a process can finish an older snapshot
// after another process fed the chain a newer one, and a shared chain would
// hold triples the older set lacks.
type tripleBoard struct {
	n      int
	counts mem.Array[int]
	// shared makes every process feed one chain instead of its own; it is
	// set on atomic boards. Tests clear it to build the per-process
	// reference.
	shared bool
	*boardRows
}

// boardRows is a triple board's storage, reused run after run.
type boardRows struct {
	logs   [][]trace.Triple // logs[i]: the triples process i published
	snaps  [][]int          // snaps[i]: process i's snapshot buffer
	chains []chain          // one per process, or the one every process feeds
}

// chain is a collected set of published triples, grown snapshot by
// snapshot. Its fed counts say how much of each log it holds and its delta
// what the last feed added, in a buffer that stops allocating once it has
// grown to the largest delta. The logics keep what they derive from the set
// with the chain, so each set is derived from once per chain, however many
// processes feed it.
type chain struct {
	fed     []int               // fed[j]: how much of log j the chain holds
	shown   []int               // shown[j]: the most operations of process j a fed view shows
	delta   []trace.Triple      // the triples the last feed added
	builder trace.SketchBuilder // V_O: the sketch of every triple fed
	same    int                 // V_O: the sketch prefix the last feed kept
	// chk checks the set: V_O its sketch, naive-order its order-free word.
	// It is borrowed lazily.
	chk *check.Incremental
	// unchecked is set while the builder's last sketch is one the checker
	// never got, so the prefix the builder reports kept is not the
	// checker's (V_O, see errTornSet).
	unchecked bool
	ledger    *check.ECLedger    // ecled: clause (1) on the set, allocated lazily
	appends   []trace.Rec        // ecled: the set's appended records, in feed order
	got       map[trace.Rec]bool // ecled: the records of the round's get response
	clause4   bool               // SEC: some read in the set exceeds its view's incs
}

func newTripleBoard(n int, kind adversary.ArrayKind) *tripleBoard {
	return &tripleBoard{n: n, counts: adversary.NewArray(kind, n), shared: kind == adversary.ArrayAtomic}
}

// attach claims the board's rows from the session's scratch, once per run:
// every logic sharing the board attaches it, and the first one claims. The
// nil checkers make each chain's first check borrow a reset one; the got
// sets are cleared where they are filled.
func (b *tripleBoard) attach(sc *scratch) {
	if b.boardRows != nil {
		return
	}
	b.boardRows = sc.boards.claim()
	grow(&b.logs, b.n)
	grow(&b.snaps, b.n)
	k := b.n
	if b.shared {
		k = 1
	}
	if cap(b.chains) < k {
		b.chains = append(b.chains[:cap(b.chains)], make([]chain, k-cap(b.chains))...)
	}
	b.chains = b.chains[:k]
	for i := range b.chains {
		c := &b.chains[i]
		c.fed = append(c.fed[:0], make([]int, b.n)...)
		c.shown = append(c.shown[:0], make([]int, b.n)...)
		c.delta = c.delta[:0]
		c.builder.Reset()
		c.same = 0
		c.chk = nil
		c.unchecked = false
		if c.ledger != nil {
			c.ledger.Reset()
		}
		c.appends = c.appends[:0]
		c.clause4 = false
	}
}

// publish appends the process's triple and makes it visible; then snapshots
// the board (Figure 8, Line 05), feeds the process's chain the published
// triples it does not hold yet — the process's own among them — and returns
// the chain.
func (b *tripleBoard) publish(p *sched.Proc, tr trace.Triple) *chain {
	id := p.ID
	b.logs[id] = append(b.logs[id], tr)
	b.counts.Write(p, id, len(b.logs[id]))
	b.snaps[id] = b.counts.SnapshotInto(p, b.snaps[id])
	c := b.chain(id)
	c.feed(id, b.snaps[id], b.logs)
	return c
}

// chain returns the chain process id feeds.
func (b *tripleBoard) chain(id int) *chain {
	if b.shared {
		return &b.chains[0]
	}
	return &b.chains[id]
}

// collected returns the triple of operation id if process me's last
// snapshot showed it. It relies on the OpID contract of
// adversary.Service.Recv: an ID is its operation's process and per-process
// index, which is the triple's index in that process's log.
func (b *tripleBoard) collected(me int, id trace.OpID) (trace.Triple, bool) {
	if id.Idx >= b.snaps[me][id.Proc] {
		return trace.Triple{}, false
	}
	return b.logs[id.Proc][id.Idx], true
}

// feed sets the chain's delta to the triples of logs that process id's
// snapshot shows and the chain does not hold yet, and takes them. The chain
// then holds exactly the snapshot's published set, provided it held a subset
// of it before: for a process's own chain that holds because its successive
// snapshot counts are pointwise non-decreasing for every ArrayKind — counts
// only grow, and each snapshot is atomic (ArrayAtomic), linearizable
// (ArrayAADGMS), or a collect reading every cell after the previous collect
// read it (ArrayCollect). A snapshot below the chain's counts is a bug in
// the array or in the chain's sharing, and panics.
func (c *chain) feed(id int, snap []int, logs [][]trace.Triple) {
	c.delta = c.delta[:0]
	for j, n := range snap {
		if n < c.fed[j] {
			panic(fmt.Sprintf("monitor: process %d snapshot shows %d triples of process %d after its chain took %d", id, n, j, c.fed[j]))
		}
		c.delta = append(c.delta, logs[j][c.fed[j]:n]...)
		c.fed[j] = n
	}
	for _, tr := range c.delta {
		for j := range tr.View.Procs() {
			c.shown[j] = max(c.shown[j], tr.View.Count(j))
		}
	}
}

// errTornSet reports a collected set that is not a cut of the execution: a
// fed view shows an operation of some process whose previous operation's
// triple the set lacks. Its sketch would leave two operations of that
// process pending, which is no history. Only a collect can tear a set so:
// it may read a process's count before that process publishes a triple,
// and another count after a process whose view shows the next operation
// published. An atomic or AADGMS snapshot shows every triple published
// before its (linearization) point, and a view's operations were all
// invoked before it, so their earlier triples were published before it too.
var errTornSet = errors.New("monitor: collected set shows a view past a missing triple")

// torn reports whether the chain holds a torn set (errTornSet): some
// process has more than one operation a view shows and no fed triple
// answers.
func (c *chain) torn() bool {
	for j, k := range c.shown {
		if k > c.fed[j]+1 {
			return true
		}
	}
	return false
}

// NewLin returns the algorithm V_O of Figure 8, which predictively strongly
// decides LIN_O for the sequential object obj (Theorem 6.2): each process
// publishes its (v, w, view) triples in M, snapshots M, builds the finite
// history h_i via Appendix B's construction and reports YES exactly when h_i
// is linearizable with respect to obj. tau must be the timed adversary the
// processes interact with (its announcement log resolves view contents);
// kind selects the implementation of M.
func NewLin(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("lin-fig8/"+obj.Name()+"/"+kind.String(), tau, kind, obj, true)
}

// NewSC is V_O with the sequential-consistency check: the same construction
// predictively strongly decides SC_O (Table 1 rows SC_REG, SC_LED).
func NewSC(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("sc-fig8/"+obj.Name()+"/"+kind.String(), tau, kind, obj, false)
}

// newPredictive builds V_O's logics over one board of the given kind.
//
// A process's verdict is a function of its collected set S_i alone: the
// sketch BuildSketch(S_i) and its check. The sketch depends on its set and
// not on the order it was fed in, so V_O keeps both with the chain (see
// tripleBoard).
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

// predictiveLogic is the per-process body of Figure 8.
type predictiveLogic struct {
	n        int
	board    *tripleBoard
	tau      *adversary.Timed
	obj      trace.Object
	realTime bool

	pool  *check.Pool // the session's checker pool
	chain *chain      // the chain this round fed

	inv     trace.Symbol
	verdict Verdict
}

// attach hands the logic the session's checker pool and the board's rows.
func (l *predictiveLogic) attach(sc *scratch, _ int) {
	l.board.attach(sc)
	l.pool = sc.checks
}

// accept decides the consistency condition on the round's sketch history
// with its chain's checker, borrowed from the pool at the chain's first
// check of the run. The checker stays alive across the chain's verdict
// stream: successive sketch histories usually extend each other, so each
// round costs only the new suffix, and the builder's unchanged prefix spares
// comparing the rest; where views reorder the reconstructed past, the
// checker rewinds to the first changed symbol and re-feeds only from there.
// Its verdicts are the one-shot checks' on every round (pinned against
// check.Linearizable and check.SeqConsistent by this package's tests).
func (l *predictiveLogic) accept(h trace.Word) bool {
	c := l.chain
	if c.chk == nil {
		c.chk = l.pool.Get(l.obj, l.realTime, l.n)
	}
	return c.chk.CheckExtending(h, c.same)
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
		// adversaries), or a torn set (only on a collect-backed board),
		// leave the process without a usable history this round; Section
		// 6.2 notes the construction in [41] handles this at the cost of
		// extra local computation. The round reports YES: a NO without a
		// sketch to justify it would break predictive soundness, and a
		// missed detection is retried next round with fresh views.
		l.verdict = Yes
		return
	}
	if l.accept(h) {
		l.verdict = Yes
	} else {
		l.verdict = No
	}
}

// round publishes the process's triple, snapshots M and extends the sketch
// of its chain by the newly collected triples, giving h_i and recording how
// much of the chain's previous sketch it kept.
func (l *predictiveLogic) round(p *sched.Proc, resp trace.Response) (trace.Word, error) {
	if resp.View == nil {
		panic("monitor: predictive monitor requires a timed service")
	}
	c := l.board.publish(p, trace.Triple{
		ID:   resp.ID,
		Inv:  l.inv,
		Res:  resp.Sym,
		View: *resp.View,
	})
	h, same, err := c.builder.Extend(l.n, c.delta, l.tau.InvAt)
	if err == nil {
		if c.unchecked {
			same = 0
		}
		if c.unchecked = c.torn(); c.unchecked {
			err = errTornSet
		}
	}
	c.same = same
	l.chain = c
	return h, err
}

// Decide implements Line 06.
func (l *predictiveLogic) Decide(_ *sched.Proc) Verdict { return l.verdict }

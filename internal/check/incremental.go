package check

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/drv-go/drv/exp/trace"
)

// Incremental answers linearizability or sequential-consistency queries over
// every prefix of one growing history without re-running the witness search
// from scratch per prefix. The device is a cached witness: one ordered path
// of placements, each an operation and the object state after it. The path
// is always valid for the current history: it respects process order and,
// when checked, real-time order, and the specification returns each placed
// complete operation's real response. A placed pending operation gets the
// specification's response. When the path also places every complete
// operation it is an accepting linearization, and the history passes. Appending symbols updates the path
// in constant time in the common cases:
//
//   - An invocation leaves the witness intact. The new operation is pending,
//     and a pending operation may always be dropped from a linearization, so
//     an accepting prefix stays accepting. (The converse is false — a new
//     pending operation can also make a previously rejecting prefix
//     accepting, by being placed with the specification's response — so a
//     rejecting verdict is re-checked, lazily, at the next query.)
//
//   - A response completes the process's pending operation. If the path
//     placed it, the specification's response there either matches the real
//     one (the witness still stands) or refutes the placement, and the path
//     is cut just before it. If the path dropped it, the operation is
//     appended at the end of the path when the specification's response from
//     the last state matches the real one — always legal there: per-process
//     order is respected (the operation is its process's last), and under
//     real-time precedence every operation that precedes it is complete,
//     hence already placed, while the new operation precedes nothing (its
//     response is the history's last symbol).
//
// Only when no cheap update applies does the next query run the residual
// search: the package's memoized witness search (see search), over buffers
// the checker retains. It either rebuilds the witness or memoizes a
// rejecting verdict until the history changes. Verdict-stream workloads are
// therefore cheap on both sides of a violation: accepting rounds ride the
// witness, and once a round rejects, repeated queries of the unchanged
// history cost nothing.
//
// The residual search first resumes from the path. A refuted witness is
// usually one placement away from a new one, so the search descends first
// from the deepest path node the refuted operation can still reach, under a
// node budget of about the path's length, and only then, sharing the memo,
// from the initial state. The root search visits each node's candidate
// front operations in ascending rank — their position in the linearization
// the last successful search found — and the operations that linearization
// never placed last, in process order. Neither changes an exhaustive
// memoized search's verdict, only which witness is found and how soon.
// Ranks live as long as the operations they rank: a successful search
// re-ranks every operation from its accepting path, a rejecting search
// keeps the old ranks, and Reset clears them all. The append-at-end repair
// leaves the appended operation's rank unchanged: ranking it too made the
// first search of a whole-history check follow the response order of a long
// accepted prefix, which sent some sequential-consistency searches twenty
// times deeper than process order does, for no gain on the verdict streams.
//
// The search also stops where no witness can lie (prune.go). When the
// object's states are queues, stacks or ledgers, a node is dead as soon as
// the operations it leaves unplaced can no longer all be answered from any
// state reachable from it: some value's complete removers outnumber the
// items of it that can still leave plus the later adds of it that can, a
// remover that returned Empty waits behind an item that never leaves, or a
// complete get is shorter than the ledger or the longest one does not
// extend it. Every rule is a necessary condition for an accepting
// completion, so a dead node has none and no verdict changes; the rules
// only shorten the searches that prove a history inconsistent, which
// otherwise try every order of the operations left. Append and rewind keep
// the counts the rules read, in constant time per symbol.
//
// A history that changes near its end is rewound rather than re-fed
// (CheckExtending): each undone response makes its operation pending again,
// and its placement stands, with the real response as the specification's
// there; each undone invocation cuts the path at the operation's placement. The
// ranks of the surviving operations and the interned state tree carry over.
//
// Crash boundaries need no special casing: a crashed process's last
// operation simply stays pending forever, which the witness already models
// (pending operations are placeable or droppable at every query).
//
// Processes are numbered [0,n): the checker keeps one row per process, and
// Append panics on a symbol naming any other. It also mirrors
// trace.Operations' well-formedness contract, panicking on the same
// malformed inputs at the same positions.
//
// An Incremental is not safe for concurrent use; pooled workloads give each
// worker (or each monitor logic) its own, via Pool.
type Incremental struct {
	obj      trace.Object
	realTime bool
	n        int

	init      trace.State       // initial state (interned root when offered)
	syms      trace.Word        // the fed history
	ops       []trace.Operation // trace.Operations(syms), maintained in place
	readOnly  []bool            // readOnly[oi]: ops[oi] is non-mutating (OpSig.Mutating false)
	byProc    [][]int           // operation indices per row (row p is process p), process order
	counts    []int             // per-process operations started
	complete  []int             // per-process complete-operation count
	pendingOf []int             // per-process index into ops of the pending op, -1 = none
	nComplete int               // total complete operations

	// The cached witness: path, valid for the current history, and at[oi],
	// operation oi's index in it (-1 when unplaced). wValid: the path places
	// every complete operation. While it does not, from is the path node the
	// next search first descends from; 0 leaves only the root search.
	path   []placement
	at     []int
	wValid bool
	from   int

	// The witness order: rank[oi] is operation oi's position in the
	// linearization the last successful search found, -1 if it placed none.
	// ranked is false until a search has placed an operation, and the
	// search then visits plain process order.
	rank   []int
	ranked bool

	// Search scratch, retained across searches.
	sFront []int
	sLeft  int     // complete operations not yet placed
	sPath  []int   // operations placed on the current descent, in order
	spare  int     // nodes the descent may still visit; negative: unbounded
	width  uint    // bits per front in a packed memo key: 64/n
	packed pairSet // fruitless nodes whose key packs (packKey)
	memo   byteSet // every other fruitless node, by buildKey
	key    []byte  // reused key-building buffer

	// Work counters over the checker's lifetime, kept across Reset.
	searches int // residual searches run
	nodes    int // search nodes visited (rec calls)
	extends  int // responses the cached witness absorbed without a search

	sigs []trace.OpSig // obj.Ops(), fetched lazily

	okCache bool
	okValid bool

	pr pruning // dead-state pruning (prune.go)
}

// placement is one step of the cached witness: an operation and the object
// state after it. The response the witness gives an operation pending when
// placed is the specification's from the state before it, which is the
// real one once the operation responds and the placement stands.
type placement struct {
	op int         // index into ops
	st trace.State // object state after the operation
}

// readOnlyOp reports whether the named operation is non-mutating per the
// object's signatures; unknown operations are conservatively mutating. The
// signature lists are a handful of entries, so a scan beats a map lookup.
func (c *Incremental) readOnlyOp(op string) bool {
	if c.sigs == nil {
		c.sigs = c.obj.Ops()
	}
	for i := range c.sigs {
		if c.sigs[i].Name == op {
			return !c.sigs[i].Mutating
		}
	}
	return false
}

// NewIncremental returns a checker for the object over n processes:
// realTime true checks linearizability, false sequential consistency.
func NewIncremental(obj trace.Object, realTime bool, n int) *Incremental {
	c := &Incremental{obj: obj, realTime: realTime}
	c.Reset(n)
	return c
}

// Len returns the length of the history the checker holds.
func (c *Incremental) Len() int { return len(c.syms) }

// Reset rewinds the checker to the empty history over n processes, keeping
// every grown buffer: a reset checker re-fed a same-sized workload does not
// allocate.
func (c *Incremental) Reset(n int) {
	if n < 0 {
		n = 0
	}
	c.n = n
	c.syms = c.syms[:0]
	c.ops = c.ops[:0]
	c.readOnly = c.readOnly[:0]
	for len(c.byProc) < n {
		c.byProc = append(c.byProc, nil)
	}
	c.byProc = c.byProc[:n]
	for p := range c.byProc {
		c.byProc[p] = c.byProc[p][:0]
	}
	c.counts = resetInts(c.counts, n, 0)
	c.complete = resetInts(c.complete, n, 0)
	c.pendingOf = resetInts(c.pendingOf, n, -1)
	c.nComplete = 0

	// The empty history's witness: nothing placed, initial state. An
	// interned object's Init roots a fresh tree per Reset: the checker is
	// single-goroutine, so every search of this history, and of what
	// rewinds make of it, can share states across reconverging branches,
	// and the interned tree is released at the next Reset.
	c.init = c.obj.Init()
	c.pr.reset(c.init)
	clear(c.path)
	c.path = c.path[:0]
	c.at = c.at[:0]
	c.wValid = true
	c.from = 0
	c.rank = c.rank[:0]
	c.ranked = false
	c.okValid = false
}

// resetInts re-sizes a per-process counter slice to n entries of v.
func resetInts(s []int, n int, v int) []int {
	for len(s) < n {
		s = append(s, v)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Append feeds the next symbol of the history, updating the witness. It
// panics on a process outside [0,n), and enforces trace.Operations'
// well-formedness contract with the same panics.
func (c *Incremental) Append(sym trace.Symbol) {
	i := len(c.syms)
	p := sym.Proc
	if p < 0 || p >= c.n {
		panic(fmt.Sprintf("check: symbol at position %d names process %d outside [0,%d)", i, p, c.n))
	}
	c.syms = append(c.syms, sym)
	readOnly := sym.Kind == trace.Inv && c.readOnlyOp(sym.Op)
	// A cached rejecting verdict often survives the appended symbol, because
	// a witness for the extension would project to one for the old history:
	//
	//   - A response: the witness restricted to the old operations places the
	//     newly complete operation as pending, with the specification's
	//     response — the real one.
	//   - Under real-time precedence, any invocation: every complete
	//     operation's response precedes the new invocation, so a witness
	//     places the new operation after all of them, and truncating the
	//     witness just before it leaves one for the old history.
	//   - A non-mutating invocation: dropping the new operation from a
	//     witness leaves the state sequence — hence every other operation's
	//     legality — unchanged (the OpSig.Mutating contract).
	//
	// Only a mutating invocation under sequential consistency can resurrect
	// acceptance (placed with the specification's response, it may repair the
	// states later operations observe), so only it forces a re-search.
	keepNo := c.okValid && !c.okCache &&
		(sym.Kind == trace.Res || c.realTime || readOnly)
	if !keepNo {
		c.okValid = false
	}
	switch sym.Kind {
	case trace.Inv:
		if c.pendingOf[p] >= 0 {
			panic(fmt.Sprintf("word: process %d invokes %q at position %d with an operation still pending", p, sym.Op, i))
		}
		oi := len(c.ops)
		c.ops = append(c.ops, trace.Operation{
			ID:  trace.OpID{Proc: p, Idx: c.counts[p]},
			Op:  sym.Op,
			Arg: sym.Val,
			Inv: i,
			Res: -1,
		})
		c.readOnly = append(c.readOnly, readOnly)
		c.rank = append(c.rank, -1)
		c.at = append(c.at, -1)
		c.pendingOf[p] = oi
		c.counts[p]++
		c.byProc[p] = append(c.byProc[p], oi)
		if c.pr.dead != nil {
			c.pr.add(c.ops, oi, c.byProc[p])
		}
	case trace.Res:
		oi := c.pendingOf[p]
		if oi < 0 {
			panic(fmt.Sprintf("word: process %d responds %q at position %d with no pending invocation", p, sym.Op, i))
		}
		o := &c.ops[oi]
		if o.Op != sym.Op {
			panic(fmt.Sprintf("word: process %d response %q at position %d does not match pending invocation %q", p, sym.Op, i, o.Op))
		}
		o.Ret = sym.Val
		o.Res = i
		c.pendingOf[p] = -1
		c.complete[p]++
		c.nComplete++
		if c.pr.dead != nil {
			c.pr.recount(c.ops, oi, c.byProc[p])
		}
		j := c.at[oi]
		if j >= 0 {
			// The path placed the operation while it was pending; the
			// specification's response there either matches the real one
			// or refutes the placement.
			if _, ok := answers(c.before(j), o); ok {
				if c.wValid {
					c.extends++
				}
				return
			}
			if c.wValid {
				c.wValid, c.from = false, j
			}
			c.truncate(j)
			return
		}
		if !c.wValid {
			return
		}
		// The path dropped the operation; append it at the end.
		if nxt, ok := answers(c.before(len(c.path)), o); ok {
			c.place(oi, nxt)
			c.extends++
		} else {
			c.wValid, c.from = false, c.lowest(oi)
		}
	default:
		panic(fmt.Sprintf("word: symbol at position %d has invalid kind %d", i, sym.Kind))
	}
}

// before returns the object state before path node j: after the path's
// first j placements.
func (c *Incremental) before(j int) trace.State {
	if j > 0 {
		return c.path[j-1].st
	}
	return c.init
}

// place appends operation oi to the path, leaving state st.
func (c *Incremental) place(oi int, st trace.State) {
	c.at[oi] = len(c.path)
	c.path = append(c.path, placement{op: oi, st: st})
}

// truncate cuts the path to its first j placements, and reports whether it
// cut a complete operation.
func (c *Incremental) truncate(j int) (cutComplete bool) {
	for _, pl := range c.path[j:] {
		c.at[pl.op] = -1
		cutComplete = cutComplete || !c.ops[pl.op].Pending()
	}
	clear(c.path[j:])
	c.path = c.path[:j]
	c.from = min(c.from, j)
	return cutComplete
}

// lowest returns the first path node where the complete operation oi, its
// process's last and unplaced, may go: after its process predecessor and,
// under real-time order, after the last placed operation that responded
// before its invocation.
func (c *Incremental) lowest(oi int) int {
	o := &c.ops[oi]
	lo := 0
	if row := c.byProc[o.ID.Proc]; len(row) > 1 {
		lo = c.at[row[len(row)-2]] + 1
	}
	if c.realTime {
		for j := len(c.path) - 1; j >= lo; j-- {
			if res := c.ops[c.path[j].op].Res; res >= 0 && res < o.Inv {
				return j + 1
			}
		}
	}
	return lo
}

// rewind cuts the history back to its first k symbols, undoing the later
// ones last first. An undone response makes its operation pending again;
// its placement, if any, stands, so the path stays valid. An undone invocation removes its operation and cuts
// the path at the operation's placement; the witness survives unless the
// cut took a complete operation.
func (c *Incremental) rewind(k int) {
	for i := len(c.syms) - 1; i >= k; i-- {
		p := c.syms[i].Proc
		row := c.byProc[p]
		oi := row[len(row)-1]
		if c.syms[i].Kind == trace.Res {
			o := &c.ops[oi]
			o.Ret, o.Res = nil, -1
			c.pendingOf[p] = oi
			c.complete[p]--
			c.nComplete--
			if c.pr.dead != nil {
				c.pr.recount(c.ops, oi, row)
			}
			continue
		}
		if j := c.at[oi]; j >= 0 && c.truncate(j) && c.wValid {
			c.wValid, c.from = false, j
		}
		if c.pr.dead != nil {
			c.pr.remove(c.ops, oi)
		}
		c.ops = c.ops[:oi]
		c.readOnly = c.readOnly[:oi]
		c.rank = c.rank[:oi]
		c.at = c.at[:oi]
		c.byProc[p] = row[:len(row)-1]
		c.counts[p]--
		c.pendingOf[p] = -1
	}
	c.syms = c.syms[:k]
	c.okValid = false
	if c.pr.gStale {
		c.pr.longest(c.ops, c.byProc)
	}
}

// DropRealTime turns a linearizability checker into a sequential-consistency
// checker of the same history, partway through it: every later Append and OK
// judges without real-time order. Everything the checker holds carries over,
// because every linearization respects process order and so witnesses
// sequential consistency: the cached witness, the ranks, the rows and the
// interned tree. A cached rejection does not: a history with no
// linearization may still be sequentially consistent, so the next OK
// searches again.
func (c *Incremental) DropRealTime() {
	c.realTime = false
	c.okValid = c.okValid && c.okCache
}

// OK reports whether the history fed so far passes the check — exactly
// LinearizableOps/SeqConsistentOps(obj, trace.Operations(prefix)).
func (c *Incremental) OK() bool {
	if c.wValid {
		return true
	}
	if !c.okValid {
		c.okCache = c.search()
		c.okValid = true
		if c.okCache {
			c.adoptWitness()
		}
	}
	return c.okCache
}

// CheckExtending checks w, reusing the witness for the part of w the checker
// already holds (the predictive monitors' verdict stream: successive sketch
// histories usually extend each other, but view reordering can rebuild the
// recent past). The checker rewinds to the first symbol at or after same
// where w differs from the history already fed, then appends the rest of w.
// The caller guarantees that w[:same] equals the history already fed, up to
// its length (a sketch builder reports how much of its last word it kept),
// so only the symbols from same on are compared; same == 0 compares them
// all.
func (c *Incremental) CheckExtending(w trace.Word, same int) bool {
	k := min(same, len(c.syms), len(w))
	for k < len(c.syms) && k < len(w) && c.syms[k].Equal(w[k]) {
		k++
	}
	if k < len(c.syms) {
		c.rewind(k)
	}
	for _, s := range w[k:] {
		c.Append(s)
	}
	return c.OK()
}

// search runs the memoized witness search over the current operations, over
// the checker's retained buffers. It is the package's only search: the
// one-shot checkers (see checkOps) run it once on a fresh layout, the
// incremental checker whenever its cached witness is refuted.
//
// Within one process operations never overlap (per-process alternation), so
// an operation is only ever placeable as the first unplaced operation of its
// process. The search state is therefore one front index per process plus
// the object state, rather than an arbitrary placed-subset, and a node's
// candidates are the front operations. The placed sets reachable this way are
// exactly the per-process prefix unions a subset search over the precedence
// order would reach, so the verdict is the subset search's.
//
// A refuted witness first gets a bounded descent from path node from, the
// deepest node the refuted operation can reach (for a placement refuted by
// its response, that placement's own position): it usually finds the
// repaired witness within a few nodes. Greedy read placement (placeRead) can
// leave a path prefix off every accepting completion the root search would
// find, so the descent stops after about the path's length in nodes, and its
// abandoned frames memoize nothing. Every node it did memoize is fruitless
// from anywhere, so the root search that follows shares the memo, and the
// verdict is the root search's alone.
//
// Both descents test their start node, and every child before entering it,
// against the object's dead-state rule (pruning.dead). A dead node has no
// accepting completion, so skipping it changes only how soon the search
// answers; the memo stays sound because whether a node is dead depends only
// on its fronts, which fix the unplaced operations, and its state.
func (c *Incremental) search() bool {
	c.searches++
	c.width = 64 / uint(max(c.n, 1))
	c.packed.Clear()
	c.memo.Clear()
	start := c.nodes
	ok := c.from > 0 && c.descend(c.from, len(c.path)+1) || c.descend(0, -1)
	searchNodes.Add(int64(c.nodes - start))
	return ok
}

// searchNodes counts the nodes every search of the process has visited,
// added once per search.
var searchNodes atomic.Int64

// SearchNodes returns the number of witness-search nodes every checker of
// the process has visited so far: the cost a history's residual searches
// paid, whatever checker or entry point ran them.
func SearchNodes() int64 { return searchNodes.Load() }

// descend searches from path node k, the fronts and state after the path's
// first k placements, visiting at most spare nodes (negative: no bound).
// The pruning counts start from the history's totals less the placements of
// the path prefix it walks.
func (c *Incremental) descend(k, spare int) bool {
	c.sFront = resetInts(c.sFront, c.n, 0)
	c.sLeft = c.nComplete
	c.sPath = c.sPath[:0]
	prune := c.pr.dead != nil
	if prune {
		c.pr.begin()
	}
	for _, pl := range c.path[:k] {
		o := &c.ops[pl.op]
		c.sFront[o.ID.Proc]++
		if !o.Pending() {
			c.sLeft--
		}
		c.sPath = append(c.sPath, pl.op)
		if prune {
			c.pr.pass(o, pl.op)
		}
	}
	c.spare = spare
	st := c.before(k)
	if prune && c.pr.dead(c, st, -1) {
		return false
	}
	return c.rec(st)
}

// adoptWitness makes a successful search's accepting linearization the cached
// witness and re-ranks every operation by it. A success returns through every
// rec frame without unwinding, so sPath holds the accepting placements. The
// path keeps its prefix in common with them and replays only the rest, so
// rec records nothing per node but the operations it places.
func (c *Incremental) adoptWitness() {
	k := 0
	for k < len(c.path) && k < len(c.sPath) && c.path[k].op == c.sPath[k] {
		k++
	}
	c.truncate(k)
	st := c.before(k)
	for _, oi := range c.sPath[k:] {
		switch o := &c.ops[oi]; {
		case !o.Pending():
			st, _ = answers(st, o)
		case !c.readOnly[oi]:
			st, _, _ = st.Apply(o.Op, o.Arg)
		}
		c.place(oi, st)
	}
	c.wValid = true
	for oi := range c.rank {
		c.rank[oi] = -1
	}
	for r, oi := range c.sPath {
		c.rank[oi] = r
	}
	c.ranked = len(c.sPath) > 0
}

// packKey returns the two-word memo key of the node (fronts, st) when it has
// one: st is Interned with an id below 1<<32, and every front fits width
// bits, so the fronts concatenate into one word that no other front vector
// of this search shares. Whether a node packs depends only on the node, so
// each node has one home — the pairSet when it packs, the byteSet through
// buildKey otherwise — and one search may use both.
func (c *Incremental) packKey(st trace.State) (fronts, id uint64, ok bool) {
	in, ok := st.(trace.Interned)
	if !ok {
		return 0, 0, false
	}
	id = in.ID()
	if id>>32 != 0 {
		return 0, 0, false
	}
	for _, f := range c.sFront {
		if uint64(f)>>c.width != 0 {
			return 0, 0, false
		}
		fronts = fronts<<c.width | uint64(f)
	}
	return fronts, id, true
}

// buildKey encodes (fronts, state) into the reused buffer: the byteSet key
// of a node packKey does not pack, because its state is not Interned or a
// front outgrows its width (a long process, or more than 64 processes).
// Front counters are uvarints, a prefix-free code, so distinct vectors cannot
// collide and no per-process operation count is too large. An Interned state — every state
// of the tree the search's Init call rooted — follows as '#' plus its id as
// a uvarint: within one tree ids are equal exactly when encodings are, so
// the memo relation is the encoding path's at a fixed, small width. Any
// other state follows as '/' plus its AppendKey encoding.
// Recorded pending responses need no slot: within one search the placed
// operations' responses are functions of the placement order the fronts
// already encode, and a pending operation's response is never re-examined.
func (c *Incremental) buildKey(st trace.State) []byte {
	b := c.key[:0]
	for _, f := range c.sFront {
		b = binary.AppendUvarint(b, uint64(f))
	}
	if in, ok := st.(trace.Interned); ok {
		b = binary.AppendUvarint(append(b, '#'), in.ID())
	} else {
		b = st.AppendKey(append(b, '/'))
	}
	c.key = b
	return b
}

// placeable reports whether the front operation of row p, invoked at inv, may
// be placed next: under real-time precedence, no other row may still hold an
// unplaced operation that precedes it. Per row the earliest unplaced response
// is the front's (responses are increasing along a process), so one front
// comparison per row decides it: a complete front responding before inv.
func (c *Incremental) placeable(p, inv int) bool {
	if !c.realTime {
		return true
	}
	for q, row := range c.byProc {
		if q == p || c.sFront[q] >= len(row) {
			continue
		}
		if res := c.ops[row[c.sFront[q]]].Res; res >= 0 && res < inv {
			return false
		}
	}
	return true
}

// nextFront returns the process whose front operation rec visits after the
// one keyed last (-1 before the first), and its key: the operation's rank, or
// len(ops)+process for an unranked one, so keys are distinct and unranked
// operations follow every ranked one in process order. Without ranks the key
// is the process index. p is -1 once every front has been visited.
func (c *Incremental) nextFront(last int) (p, key int) {
	if !c.ranked {
		for q := last + 1; q < len(c.byProc); q++ {
			if c.sFront[q] < len(c.byProc[q]) {
				return q, q
			}
		}
		return -1, 0
	}
	p = -1
	for q, row := range c.byProc {
		if c.sFront[q] >= len(row) {
			continue
		}
		k := c.rank[row[c.sFront[q]]]
		if k < 0 {
			k = len(c.ops) + q
		}
		if k > last && (p < 0 || k < key) {
			p, key = q, k
		}
	}
	return p, key
}

// rec is the memoized descent. A node first tries to place a matching read
// (placeRead); failing that it branches over the front operations in
// ascending key (nextFront) order. Complete operations must reproduce their
// recorded response; pending ones adopt the specification's response or are
// dropped, and acceptance requires every complete operation placed. The
// fronts are back to this node's values after each child returns, so the
// keys are stable across the loop. A child the dead-state rule refuses
// (enter) is skipped like one whose response does not match, and is not
// counted as a node. Once a bounded descent has spent its nodes, every frame
// returns false and memoizes nothing.
func (c *Incremental) rec(st trace.State) bool {
	if c.spare == 0 {
		return false
	}
	c.spare--
	c.nodes++
	if c.sLeft == 0 {
		return true // remaining pending operations are dropped
	}
	fronts, id, packs := c.packKey(st)
	if packs && c.packed.Contains(fronts, id) || !packs && c.memo.Contains(c.buildKey(st)) {
		return false
	}
	if ok, placed := c.placeRead(st); placed {
		if !ok && c.spare != 0 {
			c.remember(st, fronts, id, packs)
		}
		return ok
	}
	for p, last := c.nextFront(-1); p >= 0; p, last = c.nextFront(last) {
		oi := c.byProc[p][c.sFront[p]]
		o := &c.ops[oi]
		pending := o.Pending()
		if !pending && c.readOnly[oi] {
			continue // placeRead refused it, and this loop's tests would too
		}
		if !c.placeable(p, o.Inv) {
			continue
		}
		var nxt trace.State
		ok := false
		if pending {
			nxt, _, ok = st.Apply(o.Op, o.Arg)
		} else {
			nxt, ok = answers(st, o)
		}
		if !ok {
			continue
		}
		c.sFront[p]++
		if !pending {
			c.sLeft--
		}
		c.sPath = append(c.sPath, oi)
		if (c.pr.dead == nil || c.enter(oi, nxt)) && c.rec(nxt) {
			return true
		}
		if c.pr.dead != nil {
			c.leave(oi)
		}
		c.sPath = c.sPath[:len(c.sPath)-1]
		c.sFront[p]--
		if !pending {
			c.sLeft++
		}
		if c.spare == 0 {
			return false
		}
	}
	c.remember(st, fronts, id, packs)
	return false
}

// remember memoizes a fruitless node in its home: the pairSet under its
// packed key, else the byteSet. The fronts and state are back to the node's
// values, so buildKey rebuilds the bytes the descent clobbered.
func (c *Incremental) remember(st trace.State, fronts, id uint64, packs bool) {
	if packs {
		c.packed.Insert(fronts, id)
		return
	}
	c.memo.Insert(c.buildKey(st))
}

// placeRead places the first front operation, in process order, that is a
// matching read: complete, non-mutating (OpSig.Mutating false), placeable,
// and answered by the specification from st with its recorded response. It
// reports placed false when no front qualifies, and otherwise the verdict of
// the child node, for which it stands in: no sibling is tried (Gibbons &
// Korach, "Testing shared memories", 1997, place such reads greedily too).
//
// That is sound and complete. Take any accepting completion from this node;
// it places the read r somewhere, since r is complete. Move r to its front:
//
//   - The state sequence does not change: r leaves the state unchanged (the
//     OpSig.Mutating contract), so every later operation is applied to the
//     state it saw before, and r itself returns its recorded response from
//     st.
//   - Process order holds: r is its process's front, so its process
//     predecessors are already placed, and its successors stay after it.
//   - Real-time order holds: placeable means nothing unplaced precedes r,
//     and moving r earlier breaks no constraint r ≺ x.
//   - Placed pending operations keep their specification responses, which
//     are functions of the unchanged state sequence.
//
// So some accepting completion starts with r, and the child decides the
// node. Checking the response before placeable keeps the pass cheap where it
// rarely fires, and the branching loop skips the complete read-only fronts
// this pass refused, since it would refuse them too.
func (c *Incremental) placeRead(st trace.State) (ok, placed bool) {
	for p, row := range c.byProc {
		if c.sFront[p] >= len(row) {
			continue
		}
		oi := row[c.sFront[p]]
		o := &c.ops[oi]
		if !c.readOnly[oi] || o.Pending() {
			continue
		}
		nxt, answered := answers(st, o)
		if !answered || !c.placeable(p, o.Inv) {
			continue
		}
		c.sFront[p]++
		c.sLeft--
		c.sPath = append(c.sPath, oi)
		if (c.pr.dead == nil || c.enter(oi, nxt)) && c.rec(nxt) {
			return true, true
		}
		if c.pr.dead != nil {
			c.leave(oi)
		}
		c.sPath = c.sPath[:len(c.sPath)-1]
		c.sFront[p]--
		c.sLeft++
		return false, true
	}
	return false, false
}

// answerer is an optional State interface: a state that tests a recorded
// response itself, cheaper than Apply followed by Equal. The ledger answers a
// get against its parent links without building the record list.
type answerer interface {
	Answers(op string, arg, ret trace.Value) (trace.State, bool)
}

// answers reports whether the complete operation o, applied to st, returns
// its recorded response, and the state after it: the state's own answer when
// it has one, Apply followed by Equal otherwise.
func answers(st trace.State, o *trace.Operation) (trace.State, bool) {
	if a, ok := st.(answerer); ok {
		return a.Answers(o.Op, o.Arg, o.Ret)
	}
	nxt, ret, ok := st.Apply(o.Op, o.Arg)
	return nxt, ok && ret.Equal(o.Ret)
}

// Pool recycles Incremental checkers across the runs of one worker: Get
// borrows a reset checker, reusing a reclaimed one of the same object in
// whichever order mode it was left (a judge's SC pass leaves its checker
// without real-time order) and setting the mode asked for. Reclaim returns
// every borrowed checker at once — callers reclaim at the start of each run,
// so a borrowed checker stays valid for the rest of its run, like a pooled
// session's Result. A Pool is not safe for concurrent use: pooled workloads
// give each worker its own.
type Pool struct {
	chks []*Incremental
	used []bool
}

// NewPool returns an empty checker pool.
func NewPool() *Pool { return &Pool{} }

// Get borrows a reset checker for (obj, realTime) over n processes. A nil
// pool lends a fresh checker, which nothing reclaims.
func (p *Pool) Get(obj trace.Object, realTime bool, n int) *Incremental {
	if p == nil {
		return NewIncremental(obj, realTime, n)
	}
	for i, c := range p.chks {
		if !p.used[i] && c.obj.Name() == obj.Name() {
			p.used[i] = true
			c.obj, c.realTime = obj, realTime
			c.Reset(n)
			return c
		}
	}
	c := NewIncremental(obj, realTime, n)
	p.chks = append(p.chks, c)
	p.used = append(p.used, true)
	return c
}

// Reclaim returns every borrowed checker to the pool.
func (p *Pool) Reclaim() {
	for i := range p.used {
		p.used[i] = false
	}
}

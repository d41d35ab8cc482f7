package check

import (
	"encoding/binary"
	"fmt"

	"github.com/drv-go/drv/exp/trace"
)

// Incremental answers linearizability or sequential-consistency queries over
// every prefix of one growing history without re-running the witness search
// from scratch per prefix. The device is a cached witness: the last accepting
// linearization found, kept as per-process placed-operation fronts, the
// object state after its final placement, and the specification response
// recorded for each placed-but-pending operation. Appending symbols updates
// the witness in constant time in the common cases:
//
//   - An invocation leaves the witness intact. The new operation is pending,
//     and a pending operation may always be dropped from a linearization, so
//     an accepting prefix stays accepting. (The converse is false — a new
//     pending operation can also make a previously rejecting prefix
//     accepting, by being placed with the specification's response — so a
//     rejecting verdict is re-checked, lazily, at the next query.)
//
//   - A response completes the process's pending operation. If the witness
//     placed it, the recorded specification response either matches the real
//     one (the witness still stands) or refutes the placement. If the
//     witness dropped it, the operation is appended at the end of the
//     witness when the specification's response from the witness's final
//     state matches the real one — always legal there: per-process order is
//     respected (the operation is its process's last), and under real-time
//     precedence every operation that precedes it is complete, hence already
//     placed, while the new operation precedes nothing (its response is the
//     history's last symbol).
//
// Only when no cheap update applies does the next query run the residual
// search: the package's memoized witness search (see search), over buffers
// the checker retains. It either rebuilds the witness or memoizes a
// rejecting verdict until the history changes. Verdict-stream workloads are
// therefore cheap on both sides of a violation: accepting rounds ride the
// witness, and once a round rejects, repeated queries of the unchanged
// history cost nothing.
//
// The residual search is witness-ordered. A refuted witness is usually one
// placement away from a new one, so the search visits each node's candidate
// front operations in ascending rank — their position in the linearization
// the last successful search found — and the operations that linearization
// never placed last, in process order. Only the visit order differs from the
// one-shot search's, which cannot change an exhaustive memoized search's
// verdict; it changes which witness is found and how soon. Ranks live as long
// as the history: a successful search re-ranks every operation from its
// accepting path, a rejecting search keeps the old ranks, and Reset clears
// them all. The append-at-end repair leaves the appended operation unranked:
// ranking it too made the first search of a whole-history check (CheckWord)
// follow the response order of a long accepted prefix, which sent some
// sequential-consistency searches twenty times deeper than process order
// does, for no gain on the verdict streams.
//
// Crash boundaries need no special casing: a crashed process's last
// operation simply stays pending forever, which the witness already models
// (pending operations are placeable or droppable at every query).
//
// A history naming a process outside [0,n) permanently falls back to the
// one-shot search over the accumulated operations. Append mirrors
// trace.Operations' well-formedness contract, panicking on the same malformed
// inputs at the same positions.
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
	byProc    [][]int           // operation indices per row (row p is process p), process order
	counts    []int             // per-process operations started
	complete  []int             // per-process complete-operation count
	pendingOf []int             // per-process index into ops of the pending op, -1 = none
	outOpen   map[int]int       // pending op of a process outside [0,n) (degenerate histories)
	outCount  map[int]int       // operation count of a process outside [0,n)
	nComplete int               // total complete operations

	// The cached witness, valid when wValid: an accepting linearization of
	// the current history, as per-process placed counts, the recorded
	// specification response of each placed pending operation, and the
	// object state after the last placement.
	wValid bool
	wFront []int
	wRets  []trace.Value
	wState trace.State

	// The witness order: rank[oi] is operation oi's position in the
	// linearization the last successful search found, -1 if it placed none.
	// ranked is false until a search has placed an operation, and the
	// search then visits plain process order.
	rank   []int
	ranked bool

	// Full-search scratch, retained across searches.
	sFront   []int
	sRets    []trace.Value
	sLeft    int         // complete operations not yet placed
	sPath    []int       // operations placed on the current descent, in order
	winState trace.State // state at the accepting leaf
	memo     byteSet     // fruitless (fronts, state) nodes
	key      []byte      // reused key-building buffer

	// Work counters over the checker's lifetime, kept across Reset.
	searches int // residual searches run
	nodes    int // search nodes visited (rec calls)
	extends  int // responses the cached witness absorbed without a search

	muts map[string]bool // operation name -> OpSig.Mutating, built lazily

	fallback bool
	okCache  bool
	okValid  bool
}

// mutatingOp reports whether the named operation is mutating per the
// object's signatures; unknown operations are conservatively mutating.
func (c *Incremental) mutatingOp(op string) bool {
	if c.muts == nil {
		c.muts = map[string]bool{}
		for _, sig := range c.obj.Ops() {
			c.muts[sig.Name] = sig.Mutating
		}
	}
	m, known := c.muts[op]
	return !known || m
}

// NewIncremental returns a checker for the object over n processes:
// realTime true checks linearizability, false sequential consistency.
func NewIncremental(obj trace.Object, realTime bool, n int) *Incremental {
	c := &Incremental{obj: obj, realTime: realTime}
	c.Reset(n)
	return c
}

// Len returns the number of symbols fed since the last Reset.
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
	c.outOpen = nil
	c.outCount = nil
	c.nComplete = 0

	// The empty history's witness: nothing placed, initial state. An object
	// with an interning root gets a fresh one per Reset: the checker is
	// single-goroutine, so every search of this history can share states
	// across reconverging branches, and the interned tree is released with
	// the history it served.
	c.init = rootState(c.obj)
	c.wValid = true
	c.wFront = resetInts(c.wFront, n, 0)
	c.wRets = resetVals(c.wRets, n)
	c.wState = c.init
	c.rank = c.rank[:0]
	c.ranked = false

	c.fallback = false
	c.okValid = false
}

// rootState returns the object's initial state: the interned root when the
// object offers one, so reconverging search branches share states instead of
// re-allocating them.
func rootState(obj trace.Object) trace.State {
	if ri, ok := obj.(trace.RootInterner); ok {
		return ri.InternRoot()
	}
	return obj.Init()
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

// resetVals re-sizes a per-process value slice to n nil entries.
func resetVals(s []trace.Value, n int) []trace.Value {
	for len(s) < n {
		s = append(s, nil)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// Append feeds the next symbol of the history, updating the witness. It
// enforces trace.Operations' well-formedness contract with the same panics.
func (c *Incremental) Append(sym trace.Symbol) {
	i := len(c.syms)
	c.syms = append(c.syms, sym)
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
	keepNo := c.okValid && !c.okCache && !c.fallback &&
		(sym.Kind == trace.Res || c.realTime || !c.mutatingOp(sym.Op))
	if !keepNo {
		c.okValid = false
	}
	p := sym.Proc
	switch sym.Kind {
	case trace.Inv:
		if c.openOf(p) >= 0 {
			panic(fmt.Sprintf("word: process %d invokes %q at position %d with an operation still pending", p, sym.Op, i))
		}
		oi := len(c.ops)
		c.ops = append(c.ops, trace.Operation{
			ID:  trace.OpID{Proc: p, Idx: c.countOf(p)},
			Op:  sym.Op,
			Arg: sym.Val,
			Inv: i,
			Res: -1,
		})
		c.rank = append(c.rank, -1)
		c.setOpen(p, oi)
		if p < 0 || p >= c.n {
			c.fallback = true
		}
		if c.fallback {
			return
		}
		c.byProc[p] = append(c.byProc[p], oi)
	case trace.Res:
		oi := c.openOf(p)
		if oi < 0 {
			panic(fmt.Sprintf("word: process %d responds %q at position %d with no pending invocation", p, sym.Op, i))
		}
		o := &c.ops[oi]
		if o.Op != sym.Op {
			panic(fmt.Sprintf("word: process %d response %q at position %d does not match pending invocation %q", p, sym.Op, i, o.Op))
		}
		o.Ret = sym.Val
		o.Res = i
		c.clearOpen(p)
		if c.fallback {
			return
		}
		c.complete[p]++
		c.nComplete++
		if !c.wValid {
			return
		}
		switch idx := c.complete[p] - 1; c.wFront[p] {
		case idx + 1:
			// The witness placed the operation while it was pending; the
			// recorded specification response either matches the real one
			// or refutes the placement.
			if c.wRets[p] != nil && c.wRets[p].Equal(sym.Val) {
				c.wRets[p] = nil
				c.extends++
			} else {
				c.wValid = false
			}
		case idx:
			// The witness dropped the operation; append it at the end.
			if nxt, ret, ok := c.wState.Apply(o.Op, o.Arg); ok && ret.Equal(sym.Val) {
				c.wState = nxt
				c.wFront[p] = idx + 1
				c.extends++
			} else {
				c.wValid = false
			}
		default:
			c.wValid = false // unreachable: a valid witness places every complete operation
		}
	default:
		panic(fmt.Sprintf("word: symbol at position %d has invalid kind %d", i, sym.Kind))
	}
}

// OK reports whether the history fed so far passes the check — exactly
// LinearizableOps/SeqConsistentOps(obj, trace.Operations(prefix)).
func (c *Incremental) OK() bool {
	if c.fallback {
		if !c.okValid {
			c.okCache = checkOps(c.obj, c.ops, c.realTime)
			c.okValid = true
		}
		return c.okCache
	}
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

// CheckWord resets the checker and checks w whole.
func (c *Incremental) CheckWord(w trace.Word) bool {
	c.Reset(c.n)
	for _, s := range w {
		c.Append(s)
	}
	return c.OK()
}

// CheckExtending checks w, reusing the witness when w extends the history
// already fed (the predictive monitors' verdict stream: successive sketch
// histories usually extend each other, but view reordering can rebuild the
// past, in which case the checker resets and re-feeds). The caller
// guarantees that w[:same] equals the history already fed, up to its length
// (a sketch builder reports how much of its last word it kept), so only the
// symbols from same on are compared; same == 0 compares them all.
func (c *Incremental) CheckExtending(w trace.Word, same int) bool {
	k := len(c.syms)
	same = min(same, k)
	if k > len(w) || !c.syms[same:].Equal(w[same:k]) {
		c.Reset(c.n)
		k = 0
	}
	for _, s := range w[k:] {
		c.Append(s)
	}
	return c.OK()
}

// AnyPrefixViolated reports whether some finite prefix of w fails the check
// — the incremental form of the anyPrefixViolates lift the non-prefix-closed
// languages (sequential consistency) need. Only prefixes ending at a
// response symbol (and w itself) can introduce a violation: a trailing
// pending invocation is droppable, so it never invalidates a witness. The
// forward pass exits at the first violated prefix, so an accepting history
// costs one witness maintenance sweep and a violating one at most one full
// search beyond it.
func (c *Incremental) AnyPrefixViolated(w trace.Word) bool {
	c.Reset(c.n)
	for _, s := range w {
		c.Append(s)
		if s.Kind == trace.Res && !c.OK() {
			return true
		}
	}
	return !c.OK()
}

// openOf returns the index into ops of the process's pending operation, or
// -1; processes outside [0,n) are tracked in the degenerate side maps.
func (c *Incremental) openOf(p int) int {
	if p >= 0 && p < c.n {
		return c.pendingOf[p]
	}
	if oi, ok := c.outOpen[p]; ok {
		return oi
	}
	return -1
}

func (c *Incremental) setOpen(p, oi int) {
	if p >= 0 && p < c.n {
		c.pendingOf[p] = oi
		c.counts[p]++
		return
	}
	if c.outOpen == nil {
		c.outOpen = map[int]int{}
		c.outCount = map[int]int{}
	}
	c.outOpen[p] = oi
	c.outCount[p]++
}

func (c *Incremental) clearOpen(p int) {
	if p >= 0 && p < c.n {
		c.pendingOf[p] = -1
		return
	}
	delete(c.outOpen, p)
}

// countOf returns how many operations the process has started.
func (c *Incremental) countOf(p int) int {
	if p >= 0 && p < c.n {
		return c.counts[p]
	}
	return c.outCount[p]
}

// search runs the memoized witness search over the current operations, from
// the initial state, over the checker's retained buffers. It is the package's
// only search: the one-shot checkers (see checkOps) run it once on a fresh
// layout, the incremental checker whenever its cached witness is refuted.
//
// Within one process operations never overlap (per-process alternation), so
// an operation is only ever placeable as the first unplaced operation of its
// process. The search state is therefore one front index per process plus
// the object state, rather than an arbitrary placed-subset, and a node's
// candidates are the front operations. The placed sets reachable this way are
// exactly the per-process prefix unions a subset search over the precedence
// order would reach, so the verdict is the subset search's.
func (c *Incremental) search() bool {
	c.searches++
	c.sFront = resetInts(c.sFront, c.n, 0)
	c.sRets = resetVals(c.sRets, c.n)
	c.sLeft = c.nComplete
	c.sPath = c.sPath[:0]
	c.memo.Clear()
	return c.rec(c.init)
}

// adoptWitness makes a successful search's accepting linearization the cached
// witness and re-ranks every operation by it. A success returns through every
// rec frame without unwinding, so sFront, sRets and sPath hold the accepting
// leaf's values.
func (c *Incremental) adoptWitness() {
	copy(c.wFront, c.sFront)
	copy(c.wRets, c.sRets)
	c.wState = c.winState
	c.wValid = true
	for oi := range c.rank {
		c.rank[oi] = -1
	}
	for r, oi := range c.sPath {
		c.rank[oi] = r
	}
	c.ranked = len(c.sPath) > 0
}

// buildKey encodes (fronts, state) into the reused buffer. Front counters
// are uvarints, a prefix-free code, so distinct vectors cannot collide and no
// per-process operation count is too large; the state encoding is State.Key's
// (via the allocation-free AppendKey when available).
// Recorded pending responses need no slot: within one search the placed
// operations' responses are functions of the placement order the fronts
// already encode, and a pending operation's response is never re-examined.
func (c *Incremental) buildKey(st trace.State) []byte {
	b := c.key[:0]
	for _, f := range c.sFront {
		b = binary.AppendUvarint(b, uint64(f))
	}
	b = append(b, '/')
	if ka, ok := st.(trace.KeyAppender); ok {
		b = ka.AppendKey(b)
	} else {
		b = append(b, st.Key()...)
	}
	c.key = b
	return b
}

// placeable reports whether the front operation o of row p may be placed
// next: under real-time precedence, no other row may still hold an unplaced
// operation that precedes o. Per row the earliest unplaced response is the
// front's (responses are increasing along a process), so one front
// comparison per row decides it.
func (c *Incremental) placeable(p int, o *trace.Operation) bool {
	if !c.realTime {
		return true
	}
	for q, row := range c.byProc {
		if q == p || c.sFront[q] >= len(row) {
			continue
		}
		if f := &c.ops[row[c.sFront[q]]]; f.Precedes(*o) {
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

// rec is the memoized descent, trying the front operations in ascending key
// (nextFront) order. Complete operations must reproduce their recorded
// response; pending ones adopt the specification's response or are dropped,
// and acceptance requires every complete operation placed. The fronts are
// back to this node's values after each child returns, so the keys are
// stable across the loop.
func (c *Incremental) rec(st trace.State) bool {
	c.nodes++
	if c.sLeft == 0 {
		c.winState = st
		return true // remaining pending operations are dropped
	}
	if c.memo.Contains(c.buildKey(st)) {
		return false
	}
	for p, last := c.nextFront(-1); p >= 0; p, last = c.nextFront(last) {
		oi := c.byProc[p][c.sFront[p]]
		o := &c.ops[oi]
		if !c.placeable(p, o) {
			continue
		}
		nxt, ret, ok := st.Apply(o.Op, o.Arg)
		if !ok {
			continue
		}
		pending := o.Pending()
		if !pending && !ret.Equal(o.Ret) {
			continue
		}
		c.sFront[p]++
		if pending {
			c.sRets[p] = ret
		} else {
			c.sLeft--
		}
		c.sPath = append(c.sPath, oi)
		if c.rec(nxt) {
			return true
		}
		c.sPath = c.sPath[:len(c.sPath)-1]
		c.sFront[p]--
		if pending {
			c.sRets[p] = nil
		} else {
			c.sLeft++
		}
	}
	// Rebuild the key: the buffer was clobbered by the descent, but fronts
	// and state are back to this node's values, so the encoding is too.
	c.memo.Insert(c.buildKey(st))
	return false
}

// Pool recycles Incremental checkers across the runs of one worker: Get
// borrows a reset checker (reusing a reclaimed one whose object and order
// mode match), Reclaim returns every borrowed checker at once — callers
// reclaim at the start of each run, so a borrowed checker stays valid for
// the rest of its run, like a pooled session's Result. A Pool is not safe
// for concurrent use: pooled workloads give each worker its own.
type Pool struct {
	chks []*Incremental
	used []bool
}

// NewPool returns an empty checker pool.
func NewPool() *Pool { return &Pool{} }

// Get borrows a reset checker for (obj, realTime) over n processes.
func (p *Pool) Get(obj trace.Object, realTime bool, n int) *Incremental {
	for i, c := range p.chks {
		if !p.used[i] && c.realTime == realTime && c.obj.Name() == obj.Name() {
			p.used[i] = true
			c.obj = obj
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

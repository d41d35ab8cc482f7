package check

import "github.com/drv-go/drv/exp/trace"

// Dead-state pruning. A node of the witness search is dead when the
// operations it leaves unplaced can no longer all be answered from any state
// reachable from it; the search returns false there at once instead of trying
// every order of them. Each rule below is a necessary condition for an
// accepting completion, so a dead node has none and no verdict changes: the
// generic search stays the one decider, and the rules only cut branches it
// would refute anyway. The rules read two optional State interfaces, beside
// answerer; objects whose states implement neither search as before.
//
// Queues and stacks (listState). Per value, count the unplaced complete
// removers that returned it and the unplaced adders of it. Unplaced pending
// removers are wildcards: they may take any item. A complete remover that
// returned Empty is a wildcard too when some adder's argument is Empty, since
// it may have taken such an item; otherwise it needs an empty list. Walk the
// list from the end removers take, giving each item a remover of its value,
// or else a wildcard. The first item that gets neither is stuck: each item
// ahead of it needs a remover of its own to leave first, so it never leaves,
// nothing behind it leaves, and for a queue no later enqueue leaves either.
// The node is dead when
//
//   - an item is stuck and an unplaced complete remover needs the list
//     empty, which it never is again; or
//   - some value's unplaced complete removers outnumber the items of that
//     value that can still leave plus the later adds of it that can.
//
// Ledgers (logState). States only grow, and a complete get must be placed
// at a state of exactly its length, whose every predecessor is a prefix of
// it. So appending record r to a d-record state is refused when an unplaced
// complete get returned exactly d records, or when the history's longest
// complete get is unplaced and its record d is not r; and a descent's start
// node is dead when an unplaced complete get is shorter than its state, or
// the unplaced longest get does not extend it. Every node a descent reaches
// from a live start by placements the rules allow therefore satisfies the
// start test too, so one comparison per append keeps it.
//
// The totals every check starts from are kept as symbols arrive: Append and
// rewind maintain each operation's role and value id and the per-value
// counts in O(1) per symbol. A descent copies them and subtracts the
// placements of the path prefix it starts from, which it walks anyway; the
// search then keeps the counts as it places and unplaces operations, so the
// per-node test costs one walk of the state's items, and a ledger's one
// comparison.

// listState is an optional State interface: a list of integers that one
// operation extends at the back with its argument and another removes an
// item from, returning it, or Empty when the list is empty. Queue and Stack
// states implement it.
type listState interface {
	// ListOps names the adding and the removing operation, and reports
	// whether the remover takes the oldest item (a queue) or the newest
	// (a stack).
	ListOps() (add, remove string, oldest bool)
	// AppendItems appends the items to dst in the order removers take them.
	AppendItems(dst []trace.Int) []trace.Int
}

// logState is an optional State interface: a sequence of records, empty in
// the object's Init state, that one operation extends with its argument and
// another returns whole, oldest first, as a trace.Seq. A search state's
// records are therefore the appends placed on the way to it. Ledger states
// implement it.
type logState interface {
	// LogOps names the appending and the reading operation.
	LogOps() (add, get string)
}

// roleKind is what an operation contributes to a pruning tally.
type roleKind uint8

const (
	roleNone   roleKind = iota // nothing: no rule reads it
	roleAdd                    // a list adder of value key
	roleTake                   // a complete list remover that returned value key
	roleAny                    // a pending list remover: a wildcard
	roleEmpty                  // a complete list remover that returned Empty
	roleAppend                 // a log append
	roleGet                    // a complete log get that returned key records
)

// opRole is one operation's role, and the value id or record count it
// concerns.
type opRole struct {
	kind roleKind
	key  int32
}

// tally counts unplaced operations by role.
type tally struct {
	take  []int32 // list: complete removers per value id; log: complete gets per record count
	add   []int32 // list: adders per value id
	any   int     // pending removers
	empty int     // complete removers that returned Empty
	takes int     // the sum of take, for lists
	over  int     // value ids whose take exceeds add
}

// inc counts one more unplaced operation of role r.
func (t *tally) inc(r opRole) {
	switch r.kind {
	case roleAdd:
		if t.take[r.key] == t.add[r.key]+1 {
			t.over--
		}
		t.add[r.key]++
	case roleTake:
		t.take[r.key]++
		t.takes++
		if t.take[r.key] == t.add[r.key]+1 {
			t.over++
		}
	case roleAny:
		t.any++
	case roleEmpty:
		t.empty++
	case roleGet:
		t.take[r.key]++
	}
}

// dec counts one fewer.
func (t *tally) dec(r opRole) {
	switch r.kind {
	case roleAdd:
		t.add[r.key]--
		if t.take[r.key] == t.add[r.key]+1 {
			t.over++
		}
	case roleTake:
		if t.take[r.key] == t.add[r.key]+1 {
			t.over--
		}
		t.take[r.key]--
		t.takes--
	case roleAny:
		t.any--
	case roleEmpty:
		t.empty--
	case roleGet:
		t.take[r.key]--
	}
}

// copyFrom makes t a copy of u, reusing t's buffers.
func (t *tally) copyFrom(u *tally) {
	take, add := append(t.take[:0], u.take...), append(t.add[:0], u.add...)
	*t = *u
	t.take, t.add = take, add
}

// smallVals bounds the values whose ids a direct table holds; the rest go
// through a map.
const smallVals = 128

// pruning is an Incremental's dead-state pruning: the rule its object's
// states admit, each operation's role, and the counts.
type pruning struct {
	// dead is the rule (deadList or deadLog), nil when the object's states
	// implement neither interface. It reports whether node st is dead:
	// st is the state after placing operation oi, or a descent's start
	// node when oi is -1, and cur counts the operations left unplaced.
	dead          func(c *Incremental, st trace.State, oi int) bool
	addOp, takeOp string
	list          bool // a queue or a stack, not a log
	oldest        bool // a list's remover takes the oldest item

	role []opRole // per operation, beside ops
	tot  tally    // the whole history: every operation unplaced
	cur  tally    // the search: the operations beyond the fronts

	negAdds int // list adders whose argument is Empty

	// The longest complete get of a log, on which every shorter state must
	// lie: its records, process and position in that process's row; gp is
	// -1 when there is none.
	g      trace.Seq
	gp, gi int
	gStale bool // a rewind undid the longest get's response
	depth  int  // the search's current state's records
	off    bool // a descent's start records are no prefix of g

	// Value ids: vals[id] is the value, small[v] and big[v] are id+1;
	// small has smallVals entries once a value is interned.
	vals  []trace.Int
	small []int32
	big   map[trace.Int]int32

	used  []int32     // per value id, the walk's removers taken so far
	items []trace.Int // the walk's items
	ids   []int32     // their value ids
}

// reset forgets every operation and value and picks the rule for the
// states rooted at init.
func (p *pruning) reset(init trace.State) {
	p.dead, p.list, p.oldest = nil, false, false
	switch s := init.(type) {
	case listState:
		p.dead, p.list = deadList, true
		p.addOp, p.takeOp, p.oldest = s.ListOps()
	case logState:
		p.dead = deadLog
		p.addOp, p.takeOp = s.LogOps()
	}
	p.role = p.role[:0]
	p.tot = tally{take: p.tot.take[:0], add: p.tot.add[:0]}
	p.negAdds = 0
	p.g, p.gp, p.gi, p.gStale = nil, -1, 0, false
	for _, v := range p.vals {
		if uint64(v) < uint64(len(p.small)) {
			p.small[v] = 0
		}
	}
	clear(p.big)
	p.vals = p.vals[:0]
	p.used = p.used[:0]
}

// id returns value v's id, -1 when it has none.
func (p *pruning) id(v trace.Int) int32 {
	if uint64(v) < uint64(len(p.small)) {
		return p.small[v] - 1
	}
	if id, ok := p.big[v]; ok {
		return id - 1
	}
	return -1
}

// intern returns value v's id, giving it the next one when it has none.
func (p *pruning) intern(v trace.Int) int32 {
	if id := p.id(v); id >= 0 {
		return id
	}
	id := int32(len(p.vals))
	p.vals = append(p.vals, v)
	if p.small == nil {
		p.small = make([]int32, smallVals)
	}
	if uint64(v) < smallVals {
		p.small[v] = id + 1
	} else {
		if p.big == nil {
			p.big = map[trace.Int]int32{}
		}
		p.big[v] = id + 1
	}
	p.tot.take = append(p.tot.take, 0)
	p.tot.add = append(p.tot.add, 0)
	p.used = append(p.used, 0)
	return id
}

// classify returns operation o's role; a pending operation's is the one it
// has until it responds. It interns the value a list operation concerns.
func (p *pruning) classify(o *trace.Operation) opRole {
	switch {
	case o.Op == p.addOp && p.list:
		if v, ok := o.Arg.(trace.Int); ok {
			return opRole{roleAdd, p.intern(v)}
		}
	case o.Op == p.takeOp && p.list:
		if o.Pending() {
			return opRole{kind: roleAny}
		}
		if v, ok := o.Ret.(trace.Int); ok && v == trace.Empty {
			return opRole{kind: roleEmpty}
		} else if ok {
			return opRole{roleTake, p.intern(v)}
		}
	case o.Op == p.addOp:
		if _, ok := o.Arg.(trace.Rec); ok {
			return opRole{kind: roleAppend}
		}
	case o.Op == p.takeOp && !o.Pending():
		if recs, ok := o.Ret.(trace.Seq); ok {
			for len(p.tot.take) <= len(recs) {
				p.tot.take = append(p.tot.take, 0)
			}
			return opRole{roleGet, int32(len(recs))}
		}
	}
	return opRole{}
}

// add counts operation oi, just invoked (or, in a one-shot layout, laid
// out), under its role. row is its process's row, which it ends.
func (p *pruning) add(ops []trace.Operation, oi int, row []int) {
	o := &ops[oi]
	r := p.classify(o)
	p.role = append(p.role, r)
	if r.kind == roleAdd && o.Arg == trace.Value(trace.Empty) {
		p.negAdds++
	}
	p.tot.inc(r)
	p.noteGet(ops, oi, row)
}

// recount moves operation oi, whose response just arrived or was just
// undone, to the role it has now. row is its process's row, which it ends.
// An adder's role does not depend on its response.
func (p *pruning) recount(ops []trace.Operation, oi int, row []int) {
	old := p.role[oi]
	if old.kind == roleAdd || old.kind == roleAppend {
		return
	}
	r := p.classify(&ops[oi])
	p.tot.dec(old)
	p.role[oi] = r
	p.tot.inc(r)
	if old.kind == roleGet && p.gp == ops[oi].ID.Proc && p.gi == len(row)-1 {
		p.gStale = true // the longest get's response was undone; see longest
	}
	p.noteGet(ops, oi, row)
}

// noteGet makes operation oi, which ends row, the longest get when it is a
// longer complete get than the longest.
func (p *pruning) noteGet(ops []trace.Operation, oi int, row []int) {
	if r := p.role[oi]; r.kind == roleGet && (p.gp < 0 || int(r.key) > len(p.g)) {
		p.g, p.gp, p.gi = ops[oi].Ret.(trace.Seq), ops[oi].ID.Proc, len(row)-1
	}
}

// remove uncounts operation oi, the last, whose invocation was just undone.
func (p *pruning) remove(ops []trace.Operation, oi int) {
	r := p.role[oi]
	p.tot.dec(r)
	if r.kind == roleAdd && ops[oi].Arg == trace.Value(trace.Empty) {
		p.negAdds--
	}
	p.role = p.role[:oi]
}

// longest finds the longest complete get again, after a rewind undid its
// response: the first of the greatest length in row order.
func (p *pruning) longest(ops []trace.Operation, byProc [][]int) {
	p.g, p.gp, p.gi, p.gStale = nil, -1, 0, false
	for q, row := range byProc {
		for i, oi := range row {
			if r := p.role[oi]; r.kind == roleGet && (p.gp < 0 || int(r.key) > len(p.g)) {
				p.g, p.gp, p.gi = ops[oi].Ret.(trace.Seq), q, i
			}
		}
	}
}

// begin starts a descent's counts from the history's totals.
func (p *pruning) begin() {
	p.cur.copyFrom(&p.tot)
	p.depth, p.off = 0, false
}

// pass counts operation o, at index oi, as placed on the path prefix a
// descent starts after, following its records for a log.
func (p *pruning) pass(o *trace.Operation, oi int) {
	r := p.role[oi]
	p.cur.dec(r)
	if r.kind == roleAppend {
		p.off = p.off || p.depth >= len(p.g) || p.g[p.depth] != o.Arg.(trace.Rec)
		p.depth++
	}
}

// enter counts operation oi as placed, leaving state st, and reports
// whether the node it leads to is still live. Only a placement that changes
// the state or what the rules count can kill a live node: an operation
// without a role leaves both as they were (a pending get; the others never
// apply), and a get only lifts a constraint.
func (c *Incremental) enter(oi int, st trace.State) bool {
	r := c.pr.role[oi]
	c.pr.cur.dec(r)
	switch r.kind {
	case roleNone, roleGet:
		return true
	case roleAppend:
		c.pr.depth++
	}
	return !c.pr.dead(c, st, oi)
}

// leave undoes enter.
func (c *Incremental) leave(oi int) {
	r := c.pr.role[oi]
	c.pr.cur.inc(r)
	if r.kind == roleAppend {
		c.pr.depth--
	}
}

// deadList is the queue and stack rule.
func deadList(c *Incremental, st trace.State, _ int) bool {
	wild, empty := c.pr.cur.any, c.pr.cur.empty
	if c.pr.negAdds > 0 {
		wild, empty = wild+empty, 0
	}
	return c.listDead(st, wild, empty, c.pr.oldest)
}

// listDead walks st's items with wild wildcards, counting empty complete
// removers that need an empty list; oldest says later adds queue behind the
// items, so a stuck item keeps them in too.
func (c *Incremental) listDead(st trace.State, wild, empty int, oldest bool) bool {
	p, t := &c.pr, &c.pr.cur
	p.items = st.(listState).AppendItems(p.items[:0])
	p.ids = p.ids[:0]
	// left counts the complete removers no item has gone to yet, over the
	// values whose removers still outnumber their later adds.
	left, over := t.takes, t.over
	stuck := false
	for _, x := range p.items {
		if v := p.id(x); v >= 0 && p.used[v] < t.take[v] {
			p.used[v]++
			p.ids = append(p.ids, v)
			left--
			if t.take[v]-p.used[v] == t.add[v] {
				over--
			}
			continue
		}
		if wild == 0 {
			stuck = true
			break
		}
		wild--
	}
	for _, v := range p.ids {
		p.used[v] = 0
	}
	switch {
	case !stuck:
		return over > 0
	case empty > 0:
		return true
	case oldest:
		return left > 0
	}
	return over > 0
}

// deadLog is the ledger rule.
func deadLog(c *Incremental, _ trace.State, oi int) bool {
	return c.logDead(oi, c.pr.gp >= 0 && c.sFront[c.pr.gp] <= c.pr.gi)
}

// logDead tests the node reached by placing oi, an append, or a descent's
// start node when oi is -1, where gOpen says the longest get is unplaced.
// The records are the ones begin, pass and enter followed.
func (c *Incremental) logDead(oi int, gOpen bool) bool {
	p, t := &c.pr, &c.pr.cur
	if oi >= 0 {
		d := p.depth - 1 // the records before the append
		if d < len(t.take) && t.take[d] > 0 {
			return true
		}
		return gOpen && (len(p.g) <= d || p.g[d] != c.ops[oi].Arg.(trace.Rec))
	}
	for _, k := range t.take[:min(p.depth, len(t.take))] {
		if k > 0 {
			return true
		}
	}
	return gOpen && p.off
}

package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// Operation names shared by the objects in this package. Using shared
// constants keeps generators, checkers and monitors in agreement.
const (
	OpRead   = "read"
	OpWrite  = "write"
	OpInc    = "inc"
	OpAppend = "append"
	OpGet    = "get"
	OpEnq    = "enq"
	OpDeq    = "deq"
	OpPush   = "push"
	OpPop    = "pop"
)

// Empty is the return value of deq/pop on an empty queue/stack.
const Empty = Int(-1)

// ---------------------------------------------------------------- register

// Register returns the sequential read/write register of Example 1 with
// initial value 0: write(x) stores x, read() returns the current value.
func Register() Object { return register{} }

type register struct{}

func (register) Name() string { return "register" }
func (register) Init() State  { return regState(0) }
func (register) Ops() []OpSig {
	return []OpSig{{Name: OpWrite, Mutating: true}, {Name: OpRead}}
}
func (register) RandArg(op string, rng *rand.Rand) Value {
	if op == OpWrite {
		return Int(rng.Intn(100))
	}
	return Unit{}
}

type regState Int

// AppendKey is "r" plus the decimal value.
func (s regState) AppendKey(b []byte) []byte {
	return strconv.AppendInt(append(b, 'r'), int64(s), 10)
}
func (s regState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpWrite:
		v, ok := arg.(Int)
		if !ok {
			return s, nil, false
		}
		return regState(v), Unit{}, true
	case OpRead:
		return s, Int(s), true
	default:
		return s, nil, false
	}
}

// ---------------------------------------------------------------- counter

// Counter returns the sequential counter of Example 3 with initial value 0:
// inc() adds one, read() returns the current value.
func Counter() Object { return counter{} }

type counter struct{}

func (counter) Name() string { return "counter" }
func (counter) Init() State  { return ctrState(0) }
func (counter) Ops() []OpSig {
	return []OpSig{{Name: OpInc, Mutating: true}, {Name: OpRead}}
}
func (counter) RandArg(string, *rand.Rand) Value { return Unit{} }

type ctrState Int

// AppendKey is "c" plus the decimal count.
func (s ctrState) AppendKey(b []byte) []byte {
	return strconv.AppendInt(append(b, 'c'), int64(s), 10)
}
func (s ctrState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpInc:
		return s + 1, Unit{}, true
	case OpRead:
		return s, Int(s), true
	default:
		return s, nil, false
	}
}

// ---------------------------------------------------------------- consensus

// OpPropose is the propose operation of the Consensus object.
const OpPropose = "propose"

// Consensus returns the sequential one-shot consensus object: the first
// propose(v) decides v and returns it; every later propose returns the
// decided value regardless of its own argument. It is the sequential
// specification against which the message-passing coordinator emulation
// (package abd) is judged.
func Consensus() Object { return consensus{} }

type consensus struct{}

func (consensus) Name() string { return "consensus" }
func (consensus) Init() State  { return consState{} }
func (consensus) Ops() []OpSig {
	return []OpSig{{Name: OpPropose, Mutating: true}}
}
func (consensus) RandArg(_ string, rng *rand.Rand) Value {
	return Int(rng.Intn(100))
}

type consState struct {
	decided bool
	val     Int
}

// AppendKey is "u" while undecided, else "d" plus the decimal decision.
func (s consState) AppendKey(b []byte) []byte {
	if !s.decided {
		return append(b, 'u')
	}
	return strconv.AppendInt(append(b, 'd'), int64(s.val), 10)
}

func (s consState) Apply(op string, arg Value) (State, Value, bool) {
	if op != OpPropose {
		return s, nil, false
	}
	v, ok := arg.(Int)
	if !ok {
		return s, nil, false
	}
	if !s.decided {
		return consState{decided: true, val: v}, v, true
	}
	return s, s.val, true
}

// ---------------------------------------------------------------- ledger

// Ledger returns the sequential ledger object of Example 2 (after [3]): its
// state is a list of records, append(r) appends r, get() returns the list.
func Ledger() Object { return ledger{} }

type ledger struct{}

func (ledger) Name() string { return "ledger" }

// Init returns the empty-ledger root of a fresh interned tree of ledger
// states, one node per distinct record list.
func (ledger) Init() State {
	t := &slab[ledNode]{}
	n, id := t.alloc()
	*n = ledNode{tree: t, id: id}
	return ledState{n: n}
}
func (ledger) Ops() []OpSig {
	return []OpSig{{Name: OpAppend, Mutating: true}, {Name: OpGet}}
}
func (ledger) RandArg(op string, rng *rand.Rand) Value {
	if op == OpAppend {
		return Rec(fmt.Sprintf("r%d", rng.Intn(1000)))
	}
	return Unit{}
}

// ledState is a persistent ledger: appends share their prefix through parent
// links, so Apply(append) is one small allocation instead of a full record
// copy — checker searches apply every candidate operation at every visited
// node, which made copying the dominant cost of SC_LED/LIN_LED scenarios.
// Each node interns its append children, one per distinct record, so a node
// is a record list and its id names the state within its tree. No node
// caches its record list: a node costs O(1) memory whatever its depth, get
// builds the list with one parent walk, and Answers tests a recorded get
// response against the parent links without building it. States remain
// immutable values (the child links fill in idempotently, and states never
// cross goroutines mid-search).
type ledState struct {
	n *ledNode
}

type ledNode struct {
	tree     *slab[ledNode] // the interned tree's allocator
	id       uint64         // Interned id
	parent   *ledNode       // the ledger without its last record; nil at the root
	kid, sib *ledNode       // first interned append child; next sibling
	rec      Rec
	depth    int // records; 0 = the tree's empty-ledger root
}

// emptyRecs is the boxed return of get on the empty ledger, shared so the
// empty case never re-boxes the slice header.
var emptyRecs Value = Seq(nil)

// AppendKey is "l" followed by len(rec) + ":" + rec per record, oldest
// first. The length prefix makes the code prefix-free: records may hold any
// byte, so a plain separator would let [a, a|a] and [a|a, a] share a key.
func (s ledState) AppendKey(b []byte) []byte { return s.n.appendRecs(append(b, 'l')) }

// appendRecs appends the records' encoding oldest first, walking to the
// root before appending its own record.
func (n *ledNode) appendRecs(b []byte) []byte {
	if n.parent == nil {
		return b
	}
	b = strconv.AppendInt(n.parent.appendRecs(b), int64(len(n.rec)), 10)
	return append(append(b, ':'), n.rec...)
}

// recs returns a new list of the records, oldest first, filled by one walk
// from the newest record up the parent links.
func (n *ledNode) recs() Seq {
	seq := make(Seq, n.depth)
	for i := len(seq) - 1; i >= 0; i-- {
		seq[i] = n.rec
		n = n.parent
	}
	return seq
}

// ID implements Interned.
func (s ledState) ID() uint64 { return s.n.id }

// child returns the interned node for n with r appended. The child links
// rely on states staying within one goroutine between appends.
func (n *ledNode) child(r Rec) *ledNode {
	for k := n.kid; k != nil; k = k.sib {
		if k.rec == r {
			return k
		}
	}
	k, id := n.tree.alloc()
	*k = ledNode{tree: n.tree, id: id, parent: n, sib: n.kid, rec: r, depth: n.depth + 1}
	n.kid = k
	return k
}

func (s ledState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpAppend:
		r, ok := arg.(Rec)
		if !ok {
			return s, nil, false
		}
		return ledState{n: s.n.child(r)}, Unit{}, true
	case OpGet:
		// Values are never mutated by consumers, so the empty list is shared;
		// any other list is new, and the state keeps no copy of it.
		if s.n.depth == 0 {
			return s, emptyRecs, true
		}
		return s, s.n.recs(), true
	default:
		return s, nil, false
	}
}

// Answers reports whether op(arg) applied to s may return ret, and the state
// after it: exactly Apply followed by the returned value's Equal(ret). A get
// is answered without building the record list: ret must be a Seq as long
// as the ledger, and its records are compared newest first along the parent
// links, with no allocation. Checker searches test every complete operation
// this way.
func (s ledState) Answers(op string, arg, ret Value) (State, bool) {
	if op != OpGet {
		nxt, got, ok := s.Apply(op, arg)
		return nxt, ok && got.Equal(ret)
	}
	t, ok := ret.(Seq)
	if !ok || len(t) != s.n.depth {
		return s, false
	}
	n := s.n
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] != n.rec {
			return s, false
		}
		n = n.parent
	}
	return s, true
}

// LogOps names the ledger's appending and reading operations, for checker
// searches that prune states the unplaced operations can no longer explain.
func (ledState) LogOps() (add, get string) { return OpAppend, OpGet }

// ---------------------------------------------------------------- vector

// OpScan is the scan operation of the Vector object.
const OpScan = "scan"

// OpUpd returns the update operation name for cell i of a Vector object.
func OpUpd(i int) string { return fmt.Sprintf("upd%d", i) }

// Vector returns the n-cell snapshot-object specification: upd<i>(v) writes v
// into cell i and scan() returns the whole vector, encoded as a Seq of
// decimal strings. It is the sequential specification against which the
// wait-free snapshot protocol (package mem) is validated.
func Vector(n int) Object { return vector{n: n} }

type vector struct {
	n int
}

func (v vector) Name() string { return fmt.Sprintf("vector%d", v.n) }
func (v vector) Init() State {
	cells := make(Seq, v.n)
	for i := range cells {
		cells[i] = "0"
	}
	return vecState{cells: cells}
}
func (v vector) Ops() []OpSig {
	sigs := make([]OpSig, 0, v.n+1)
	for i := 0; i < v.n; i++ {
		sigs = append(sigs, OpSig{Name: OpUpd(i), Mutating: true})
	}
	return append(sigs, OpSig{Name: OpScan})
}
func (v vector) RandArg(op string, rng *rand.Rand) Value {
	if op == OpScan {
		return Unit{}
	}
	return Int(rng.Intn(100))
}

type vecState struct {
	cells Seq
}

// AppendKey is "v" plus the cells' Seq encoding.
func (s vecState) AppendKey(b []byte) []byte {
	return append(append(b, 'v'), s.cells.String()...)
}

func (s vecState) Apply(op string, arg Value) (State, Value, bool) {
	if op == OpScan {
		return s, s.cells.Clone(), true
	}
	if len(op) <= 3 || op[:3] != "upd" {
		return s, nil, false
	}
	i, err := strconv.Atoi(op[3:])
	if err != nil || i < 0 || i >= len(s.cells) {
		return s, nil, false
	}
	v, ok := arg.(Int)
	if !ok {
		return s, nil, false
	}
	next := s.cells.Clone()
	next[i] = Rec(v.String())
	return vecState{cells: next}, Unit{}, true
}

// ---------------------------------------------------------------- queue

// Queue returns a sequential FIFO queue of integers: enq(x) appends, deq()
// removes and returns the head, or Empty when the queue is empty. Queues are
// among the objects for which [17] proved no sound-and-complete asynchronous
// monitor exists, motivating strong decidability's impossibility.
func Queue() Object { return queue{} }

type queue struct{}

func (queue) Name() string { return "queue" }

// Init returns the empty-list root of a fresh interned tree of queue states,
// one node per distinct item list.
func (queue) Init() State { return queueState{n: newListRoot()} }
func (queue) Ops() []OpSig {
	return []OpSig{{Name: OpEnq, Mutating: true}, {Name: OpDeq, Mutating: true}}
}
func (queue) RandArg(op string, rng *rand.Rand) Value {
	if op == OpEnq {
		return Int(rng.Intn(100))
	}
	return Unit{}
}

// listNode is a persistent, interned list of integers — the state of a queue
// or a stack. A node is its contents: parent is the list without its last
// item, and each node interns its children, one per distinct appended item,
// so checker searches — which re-apply every candidate operation at every
// visited node — share one node per distinct reachable list, named by its
// id within the tree, instead of re-encoding the contents per visit.
// Push and enq append a child and pop returns to the parent; deq follows the
// tail link, the list without its first item, interned lazily as
// child(tail(parent), last item). Like ledNode's, the links fill in
// idempotently and rely on states staying within one goroutine mid-search.
type listNode struct {
	tree     *slab[listNode] // the interned tree's allocator
	id       uint64          // Interned id
	parent   *listNode       // the list without its last item
	kid, sib *listNode       // first interned child; next sibling
	tail     *listNode       // lazy: the list without its first item
	last     Int
	first    Int
	size     int // items; 0 = the tree's empty-list root
}

// newListRoot returns the empty-list root of a fresh interned tree.
func newListRoot() *listNode {
	t := &slab[listNode]{}
	n, id := t.alloc()
	*n = listNode{tree: t, id: id}
	return n
}

// child returns the interned node for n with v appended.
func (n *listNode) child(v Int) *listNode {
	for k := n.kid; k != nil; k = k.sib {
		if k.last == v {
			return k
		}
	}
	first := v
	if n.size > 0 {
		first = n.first
	}
	k, id := n.tree.alloc()
	*k = listNode{tree: n.tree, id: id, parent: n, sib: n.kid, last: v, first: first, size: n.size + 1}
	n.kid = k
	return k
}

// deq returns the node of the non-empty list n without its first item.
func (n *listNode) deq() *listNode {
	if n.size == 1 {
		return n.parent // the root
	}
	if n.tail == nil {
		n.tail = n.parent.deq().child(n.last)
	}
	return n.tail
}

// appendItems appends the comma-joined decimal items first to last,
// recursing to the front of the list first.
func (n *listNode) appendItems(b []byte) []byte {
	if n.size == 0 {
		return b
	}
	b = n.parent.appendItems(b)
	if n.size > 1 {
		b = append(b, ',')
	}
	return strconv.AppendInt(b, int64(n.last), 10)
}

type queueState struct {
	n *listNode
}

// ListOps names the queue's adding and removing operations and says deq
// takes the oldest item, for checker searches that prune states the
// unplaced operations can no longer explain.
func (queueState) ListOps() (add, remove string, oldest bool) { return OpEnq, OpDeq, true }

// AppendItems appends the items to dst head first, the order deq takes them.
func (s queueState) AppendItems(dst []Int) []Int {
	k := len(dst)
	dst = slices.Grow(dst, s.n.size)[:k+s.n.size]
	for n, i := s.n, len(dst)-1; i >= k; n, i = n.parent, i-1 {
		dst[i] = n.last
	}
	return dst
}

// AppendKey is "q" plus the comma-joined decimal encoding of the items head
// first.
func (s queueState) AppendKey(b []byte) []byte {
	return s.n.appendItems(append(b, 'q'))
}

// ID implements Interned.
func (s queueState) ID() uint64 { return s.n.id }

func (s queueState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpEnq:
		v, ok := arg.(Int)
		if !ok {
			return s, nil, false
		}
		return queueState{n: s.n.child(v)}, Unit{}, true
	case OpDeq:
		if s.n.size == 0 {
			return s, Empty, true
		}
		return queueState{n: s.n.deq()}, s.n.first, true
	default:
		return s, nil, false
	}
}

// ---------------------------------------------------------------- stack

// Stack returns a sequential LIFO stack of integers: push(x), pop() returns
// the top or Empty when empty.
func Stack() Object { return stack{} }

type stack struct{}

func (stack) Name() string { return "stack" }

// Init returns the empty-list root of a fresh interned tree of stack states,
// like Queue's.
func (stack) Init() State { return stackState{n: newListRoot()} }
func (stack) Ops() []OpSig {
	return []OpSig{{Name: OpPush, Mutating: true}, {Name: OpPop, Mutating: true}}
}
func (stack) RandArg(op string, rng *rand.Rand) Value {
	if op == OpPush {
		return Int(rng.Intn(100))
	}
	return Unit{}
}

// stackState is a persistent stack over the queue's list nodes, top last:
// push interns a child node, pop walks back to the parent.
type stackState struct {
	n *listNode
}

// ListOps names the stack's adding and removing operations and says pop
// takes the newest item, like queueState's.
func (stackState) ListOps() (add, remove string, oldest bool) { return OpPush, OpPop, false }

// AppendItems appends the items to dst top first, the order pop takes them.
func (s stackState) AppendItems(dst []Int) []Int {
	for n := s.n; n.size > 0; n = n.parent {
		dst = append(dst, n.last)
	}
	return dst
}

// AppendKey is "s" plus the comma-joined decimal encoding of the items
// bottom to top.
func (s stackState) AppendKey(b []byte) []byte {
	return s.n.appendItems(append(b, 's'))
}

// ID implements Interned.
func (s stackState) ID() uint64 { return s.n.id }

func (s stackState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpPush:
		v, ok := arg.(Int)
		if !ok {
			return s, nil, false
		}
		return stackState{n: s.n.child(v)}, Unit{}, true
	case OpPop:
		if s.n.size == 0 {
			return s, Empty, true
		}
		return stackState{n: s.n.parent}, s.n.last, true
	default:
		return s, nil, false
	}
}

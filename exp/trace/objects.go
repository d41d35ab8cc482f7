package trace

import (
	"fmt"
	"math/rand"
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

func (s regState) Key() string { return fmt.Sprintf("r%d", int64(s)) }

// AppendKey implements KeyAppender with the Key encoding.
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

func (s ctrState) Key() string { return fmt.Sprintf("c%d", int64(s)) }

// AppendKey implements KeyAppender with the Key encoding.
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

func (s consState) Key() string {
	if !s.decided {
		return "u"
	}
	return fmt.Sprintf("d%d", int64(s.val))
}

// AppendKey implements KeyAppender with the Key encoding.
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
func (ledger) Init() State  { return ledState{} }

// InternRoot implements RootInterner: the returned root node anchors a
// private interned tree of append children, so one checker's searches share
// ledger states across reconverging branches.
func (ledger) InternRoot() State { return ledState{n: &ledNode{root: true}} }
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
// The canonical encoding and the materialized record list are cached on the
// node the first time they are needed; states remain immutable values (the
// cache fills in idempotently, and states never cross goroutines mid-search).
type ledState struct {
	n *ledNode // nil = empty ledger
}

type ledNode struct {
	parent *ledNode
	rec    Rec
	root   bool       // an empty-ledger anchor from InternRoot
	enc    string     // lazy: "l" + rec + "|" per record, prefix-shared
	seq    Seq        // lazy: materialized record list
	val    Value      // lazy: seq boxed once, so get never re-boxes
	kids   []*ledNode // interned append children, one per distinct record
}

// emptyRecs is the boxed return of get on the empty ledger, shared so the
// hot checker loop never re-boxes the slice header.
var emptyRecs Value = Seq(nil)

func (s ledState) Key() string {
	if s.n == nil {
		return "l"
	}
	return s.n.key()
}

func (n *ledNode) key() string {
	if n.enc == "" {
		if n.root {
			n.enc = "l"
		} else {
			n.enc = ledState{n.parent}.Key() + string(n.rec) + "|"
		}
	}
	return n.enc
}

func (s ledState) recs() Seq {
	if s.n == nil || s.n.root {
		return nil
	}
	n := s.n
	if n.seq == nil {
		parent := ledState{n.parent}.recs()
		// Cap the parent's slice so sibling appends cannot share growth.
		n.seq = append(parent[:len(parent):len(parent)], n.rec)
	}
	return n.seq
}

// AppendKey implements KeyAppender with the Key encoding.
func (s ledState) AppendKey(b []byte) []byte { return append(b, s.Key()...) }

func (s ledState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpAppend:
		r, ok := arg.(Rec)
		if !ok {
			return s, nil, false
		}
		// Checker searches re-apply the same appends along reconverging
		// branches; interning children per (parent, record) makes those
		// branches share one node instead of allocating per visit. Like the
		// enc/seq caches, the kids list relies on states staying within one
		// goroutine between appends.
		if s.n != nil {
			for _, k := range s.n.kids {
				if k.rec == r {
					return ledState{n: k}, Unit{}, true
				}
			}
			k := &ledNode{parent: s.n, rec: r}
			s.n.kids = append(s.n.kids, k)
			return ledState{n: k}, Unit{}, true
		}
		return ledState{n: &ledNode{parent: s.n, rec: r}}, Unit{}, true
	case OpGet:
		// States are immutable and Values are never mutated by consumers, so
		// the cached record list can be returned without a defensive clone —
		// and without re-boxing it into a Value on every call, which was the
		// dominant allocation of checker searches.
		if s.n == nil || s.n.root {
			return s, emptyRecs, true
		}
		if s.n.val == nil {
			s.n.val = s.recs()
		}
		return s, s.n.val, true
	default:
		return s, nil, false
	}
}

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

func (s vecState) Key() string { return "v" + s.cells.String() }

// AppendKey implements KeyAppender with the Key encoding.
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
func (queue) Init() State  { return queueState{} }

// InternRoot implements RootInterner: the returned root anchors a
// private interned tree of queue states, so one checker's searches share
// states across reconverging branches instead of re-encoding per visit.
func (queue) InternRoot() State { return queueState{n: &queueNode{}} }
func (queue) Ops() []OpSig {
	return []OpSig{{Name: OpEnq, Mutating: true}, {Name: OpDeq, Mutating: true}}
}
func (queue) RandArg(op string, rng *rand.Rand) Value {
	if op == OpEnq {
		return Int(rng.Intn(100))
	}
	return Unit{}
}

// queueState is a persistent queue in the ledState mould: nodes record the
// enqueue/dequeue path and intern their children, so checker searches — which
// re-apply every candidate operation at every visited node — share one node
// per distinct reachable queue instead of building a fresh encoding string
// (and fmt.Sscanf-decoding the head item) on every visit. The abstract state
// is the remaining-item sequence; the key encodes exactly that, so paths that
// reconverge on the same remaining items still hit the same memo entry.
type queueState struct {
	n *queueNode // nil = the never-touched empty queue
}

type queueNode struct {
	parent *queueNode
	val    Int          // the item this node enqueued (enq nodes only)
	enq    bool         // true: enqueued val; false: dequeued one (or the root)
	enqs   int          // enqueues along the path
	head   int          // dequeues along the path
	kids   []*queueNode // interned enqueue children, one per distinct item
	deq    *queueNode   // interned dequeue child
}

// itemAt walks the path to the enqueue with index i (0-based). The walk is
// bounded by the path length — paying a pointer chase per lookup instead of
// materializing an item slice per node keeps the search's working set flat.
func (n *queueNode) itemAt(i int) Int {
	m := n
	for !m.enq || m.enqs != i+1 {
		m = m.parent
	}
	return m.val
}

// appendItems appends the comma-joined decimal items with enqueue index head
// and above, in enqueue order, by recursing to the front of the path first.
func (n *queueNode) appendItems(b []byte, head int) []byte {
	m := n
	for m != nil && !m.enq {
		m = m.parent
	}
	if m == nil || m.enqs <= head {
		return b
	}
	b = m.parent.appendItems(b, head)
	if m.enqs-1 > head {
		b = append(b, ',')
	}
	return strconv.AppendInt(b, int64(m.val), 10)
}

func (s queueState) Key() string { return string(s.AppendKey(nil)) }

// AppendKey implements KeyAppender: "q" plus the comma-joined decimal
// encoding of the remaining items, byte-identical to the historical flat
// string encoding.
func (s queueState) AppendKey(b []byte) []byte {
	b = append(b, 'q')
	if s.n == nil {
		return b
	}
	return s.n.appendItems(b, s.n.head)
}

func (s queueState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpEnq:
		v, ok := arg.(Int)
		if !ok {
			return s, nil, false
		}
		if s.n != nil {
			for _, k := range s.n.kids {
				if k.val == v {
					return queueState{n: k}, Unit{}, true
				}
			}
			k := &queueNode{parent: s.n, val: v, enq: true, enqs: s.n.enqs + 1, head: s.n.head}
			s.n.kids = append(s.n.kids, k)
			return queueState{n: k}, Unit{}, true
		}
		return queueState{n: &queueNode{val: v, enq: true, enqs: 1}}, Unit{}, true
	case OpDeq:
		n := s.n
		if n == nil || n.enqs == n.head {
			return s, Empty, true
		}
		v := n.itemAt(n.head)
		if n.deq == nil {
			n.deq = &queueNode{parent: n, enqs: n.enqs, head: n.head + 1}
		}
		return queueState{n: n.deq}, v, true
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
func (stack) Init() State  { return stackState{} }

// InternRoot implements RootInterner: the returned root anchors a
// private interned tree of stack states, like Queue's.
func (stack) InternRoot() State { return stackState{n: &stackNode{}} }
func (stack) Ops() []OpSig {
	return []OpSig{{Name: OpPush, Mutating: true}, {Name: OpPop, Mutating: true}}
}
func (stack) RandArg(op string, rng *rand.Rand) Value {
	if op == OpPush {
		return Int(rng.Intn(100))
	}
	return Unit{}
}

// stackState is a persistent stack: push interns a child node, pop walks back
// to the parent — the exact ledState shape, since a stack *is* a ledger whose
// get is destructive. Checker searches share one node per distinct reachable
// stack instead of re-encoding strings per visit.
type stackState struct {
	n *stackNode // nil = the never-touched empty stack
}

type stackNode struct {
	parent *stackNode
	val    Int
	depth  int          // pushed items along the path; 0 = an empty-stack anchor
	kids   []*stackNode // interned push children, one per distinct item
}

// appendItems appends the comma-joined decimal items bottom to top, recursing
// to the bottom of the stack first.
func (n *stackNode) appendItems(b []byte) []byte {
	if n == nil || n.depth == 0 {
		return b
	}
	b = n.parent.appendItems(b)
	if n.depth > 1 {
		b = append(b, ',')
	}
	return strconv.AppendInt(b, int64(n.val), 10)
}

func (s stackState) Key() string { return string(s.AppendKey(nil)) }

// AppendKey implements KeyAppender: "s" plus the comma-joined decimal
// encoding of the items bottom to top, byte-identical to the historical flat
// string encoding.
func (s stackState) AppendKey(b []byte) []byte {
	return s.n.appendItems(append(b, 's'))
}

func (s stackState) Apply(op string, arg Value) (State, Value, bool) {
	switch op {
	case OpPush:
		v, ok := arg.(Int)
		if !ok {
			return s, nil, false
		}
		if s.n != nil {
			for _, k := range s.n.kids {
				if k.val == v {
					return stackState{n: k}, Unit{}, true
				}
			}
			k := &stackNode{parent: s.n, val: v, depth: s.n.depth + 1}
			s.n.kids = append(s.n.kids, k)
			return stackState{n: k}, Unit{}, true
		}
		return stackState{n: &stackNode{val: v, depth: 1}}, Unit{}, true
	case OpPop:
		if s.n == nil || s.n.depth == 0 {
			return s, Empty, true
		}
		return stackState{n: s.n.parent}, s.n.val, true
	default:
		return s, nil, false
	}
}

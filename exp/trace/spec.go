package trace

import (
	"math/rand"
)

// State is an immutable sequential-object state. Apply never mutates the
// receiver; it returns the successor state, so checker searches can branch.
type State interface {
	// Apply runs one operation on the state and returns the successor state
	// and the operation's return value. ok is false when the operation name
	// is unknown; total objects (footnote 3 of the paper) accept every
	// operation in every state.
	Apply(op string, arg Value) (next State, ret Value, ok bool)
	// AppendKey appends a canonical encoding of the state to b and returns
	// the extended slice; checker searches build their memo keys from it
	// into reused buffers. Two states with equal encodings must be
	// behaviourally identical.
	AppendKey(b []byte) []byte
}

// OpSig describes one operation of an object's interface, for workload
// generators.
type OpSig struct {
	Name string
	// Mutating operations change the object state (write, inc, append, enq,
	// push); generators use this to balance workloads. The flag is a
	// contract, not a hint: Apply of a non-mutating operation must return
	// the state unchanged — the incremental checker's verdict caching and
	// the witness search's placement of matching reads (package check) rely
	// on it.
	Mutating bool
}

// Interned is an optional State interface for objects whose Init roots a
// private interned tree, so that a search re-applying the same operations
// along reconverging branches gets the same state value back instead of an
// allocation: states reached from one Init call have equal non-zero IDs
// exactly when their encodings are equal, and a checker's memo keys them by
// the small ID instead of the AppendKey bytes. IDs of states from different
// Init calls are unrelated, and such states (everything reached from one
// Init call) must stay within one goroutine.
type Interned interface {
	ID() uint64
}

// Object is a sequential object: a name, an initial state, and an operation
// signature set.
type Object interface {
	// Name returns the object's name, e.g. "register".
	Name() string
	// Init returns the initial state. An object whose states are Interned
	// returns the root of a fresh interned tree on every call.
	Init() State
	// Ops lists the object's operations.
	Ops() []OpSig
	// RandArg draws a random valid argument for the named operation.
	RandArg(op string, rng *rand.Rand) Value
}

// SeqValid applies the operations of a sequential word (alternating matched
// invocation/response pairs, no interleaving) to the object's initial state
// and reports whether every response matches the specification. It is the
// "valid sequential history" test used throughout Section 2.
func SeqValid(obj Object, ops []Operation) bool {
	st := obj.Init()
	for _, o := range ops {
		next, ret, ok := st.Apply(o.Op, o.Arg)
		if !ok {
			return false
		}
		if o.Ret != nil && !ret.Equal(o.Ret) {
			return false
		}
		st = next
	}
	return true
}

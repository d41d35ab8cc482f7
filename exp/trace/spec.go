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
	// Key is a canonical encoding of the state used to memoize checker
	// searches. Two states with equal keys must be behaviourally identical.
	Key() string
}

// KeyAppender is an optional fast path for State.Key: AppendKey appends the
// exact bytes Key would return to b and returns the extended slice, letting
// checker searches build memo keys into reused buffers instead of allocating
// a string per visited node. Implementations must keep the two encodings
// identical.
type KeyAppender interface {
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

// RootInterner is an optional Object interface for states with internal
// sharing: InternRoot returns a fresh state equivalent to Init whose
// reachable states are interned privately for the caller, so a search that
// re-applies the same operations along reconverging branches gets the same
// state value back instead of an allocation. When those states are also
// Interned, a checker's memo keys one by its small ID instead of its Key
// bytes. The returned state (and everything reached from it) must stay
// within one goroutine.
type RootInterner interface {
	InternRoot() State
}

// Interned is an optional State interface for states of an interned tree:
// two states reached from one InternRoot root have equal IDs exactly when
// their Keys are equal, and a state outside an interned tree (one reached
// from Init) reports 0. IDs of states from different roots are unrelated.
type Interned interface {
	ID() uint64
}

// Object is a sequential object: a name, an initial state, and an operation
// signature set.
type Object interface {
	// Name returns the object's name, e.g. "register".
	Name() string
	// Init returns the initial state.
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

// Package check implements the consistency checkers behind the paper's
// distributed languages: linearizability [31] and sequential consistency [34]
// for arbitrary sequential objects (Definitions 2.3–2.6), the weak and strong
// eventual counter properties (Definitions 2.7–2.8), and the eventual ledger
// (Definition 2.9).
//
// Linearizability and sequential consistency share one memoized Wing–Gill
// witness search: a concurrent history is accepted iff the complete
// operations (plus any subset of pending ones, which may be assigned their
// specification response) admit a valid sequential order that extends a
// required partial order — process order ∪ real-time order for
// linearizability, process order alone for sequential consistency. The search
// has two entry points: the one-shot checkers (Linearizable, SeqConsistent
// and their Ops forms) run it once over a whole history, and Incremental
// keeps a witness across a growing history and runs it only when an append
// refutes that witness.
package check

import (
	"fmt"
	"slices"

	"github.com/drv-go/drv/exp/trace"
)

// Linearizable reports whether the finite word is linearizable with respect
// to the sequential object (Definitions 2.4/2.6 and, for any object O,
// Section 6.2's LIN_O): responses may be appended to pending operations (the
// object's specification determines the appended value), remaining pending
// operations are removed, and the complete operations must admit a valid
// sequential order that preserves real-time precedence.
func Linearizable(obj trace.Object, w trace.Word) bool {
	return LinearizableOps(obj, trace.Operations(w))
}

// LinearizableOps is Linearizable on pre-extracted operations. Operations
// must carry the invocation/response indices assigned by trace.Operations or
// an order-isomorphic embedding; a slice that breaks per-process alternation
// panics, as trace.Operations does on a malformed word.
func LinearizableOps(obj trace.Object, ops []trace.Operation) bool {
	return checkOps(obj, ops, true)
}

// SeqConsistent reports whether the finite word is sequentially consistent
// with respect to the object (Definitions 2.3/2.5): like linearizability but
// the sequential witness need only respect each process's own operation
// order, not real-time.
func SeqConsistent(obj trace.Object, w trace.Word) bool {
	return SeqConsistentOps(obj, trace.Operations(w))
}

// SeqConsistentOps is SeqConsistent on pre-extracted operations.
func SeqConsistentOps(obj trace.Object, ops []trace.Operation) bool {
	return checkOps(obj, ops, false)
}

// checkOps is the one-shot check: one witness search over a fresh layout of
// ops, with no witness order, so it visits the front operations in process
// order.
func checkOps(obj trace.Object, ops []trace.Operation, realTime bool) bool {
	if len(ops) == 0 {
		return true
	}
	return oneShot(obj, ops, realTime).search()
}

// oneShot lays ops out for a single search: one row per process that occurs,
// in ascending process id, each holding its process's operations in slice
// order. Process ids may be negative or sparse. It panics when the slice
// breaks per-process alternation (strictly increasing ID.Idx, every non-final
// operation complete and responding before its successor's invocation), the
// shape the search's front collapse relies on and trace.Operations always
// yields.
func oneShot(obj trace.Object, ops []trace.Operation, realTime bool) *Incremental {
	var procs []int // the distinct process ids, ascending
	for i := range ops {
		if k, found := slices.BinarySearch(procs, ops[i].ID.Proc); !found {
			procs = slices.Insert(procs, k, ops[i].ID.Proc)
		}
	}
	c := &Incremental{
		obj:      obj,
		realTime: realTime,
		n:        len(procs),
		init:     rootState(obj),
		ops:      ops,
		byProc:   make([][]int, len(procs)),
	}
	for i := range ops {
		o := &ops[i]
		r, _ := slices.BinarySearch(procs, o.ID.Proc)
		row := c.byProc[r]
		if len(row) > 0 {
			if prev := &ops[row[len(row)-1]]; prev.ID.Idx >= o.ID.Idx || prev.Pending() || prev.Res >= o.Inv {
				panic(fmt.Sprintf("check: operations %v and %v of process %d break per-process alternation", prev.ID, o.ID, o.ID.Proc))
			}
		}
		c.byProc[r] = append(row, i)
		if !o.Pending() {
			c.nComplete++
		}
	}
	return c
}

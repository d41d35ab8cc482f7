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
// linearizability, process order alone for sequential consistency.
//
// Entry points: Incremental (pooled by Pool) keeps a witness across a
// growing history and searches only when an append refutes it; the one-shot
// Linearizable and SeqConsistent, and their Ops forms, search a whole history
// once, as the tests' from-scratch reference and for the benchmark harness;
// Counter and ECLedger check the eventual objects' safety clauses one symbol
// at a time, recording the Fault that first fails one, and Converges and
// ECLedgerConverges are their liveness diagnostics; BruteLinearizable and
// BruteSeqConsistent are the tests' exhaustive references, and the tests
// keep batch clause checkers as the per-symbol ones' reference. Package
// lang's Judge turns these into the verdict on a finite word that the rest
// of the repository asks for, each condition in one forward pass. The search knows only processes [0,n), one row each;
// Judge is the one place that renumbers a word's processes. An Incremental
// may drop real-time order partway through a history (DropRealTime), since
// every linearization witnesses sequential consistency: Judge's SC test
// rides the LIN pass's checker from LIN's first violation on.
//
// The memo holds the search's fruitless nodes, each a front vector and an
// object state. A node whose state is Interned and whose fronts fit 64/n
// bits each is two words, kept inline in an open-addressing table (pairSet);
// any other is a byte key (byteSet). The choice depends only on the node.
//
// The search branches only where it must. A complete non-mutating operation
// (a read: OpSig.Mutating false) whose recorded response the specification
// returns from the current state, and which nothing unplaced precedes, is
// placed without trying the alternatives, since some accepting completion,
// if any exists, starts with it. Reads pinned by their value thus cost no
// branching (Gibbons & Korach, "Testing shared memories", 1997), which keeps
// read-heavy histories from growing like (operations per process)^n. The
// rule relies on OpSig.Mutating being a contract.
package check

import (
	"fmt"

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

// oneShot lays ops out for a single search the way an Incremental does: row
// p holds process p's operations in slice order, so a history over processes
// [0,n) takes n rows. It panics on a negative process id, and when the slice
// breaks per-process alternation (strictly increasing ID.Idx, every non-final
// operation complete and responding before its successor's invocation), the
// shape the search's front collapse relies on and trace.Operations always
// yields.
func oneShot(obj trace.Object, ops []trace.Operation, realTime bool) *Incremental {
	n := 0
	for i := range ops {
		p := ops[i].ID.Proc
		if p < 0 {
			panic(fmt.Sprintf("check: operation %v names negative process %d; processes are numbered from 0", ops[i].ID, p))
		}
		n = max(n, p+1)
	}
	c := &Incremental{
		obj:      obj,
		realTime: realTime,
		n:        n,
		init:     obj.Init(),
		ops:      ops,
		byProc:   make([][]int, n),
		readOnly: make([]bool, len(ops)),
	}
	c.pr.reset(c.init)
	for i := range ops {
		o := &ops[i]
		row := c.byProc[o.ID.Proc]
		if len(row) > 0 {
			if prev := &ops[row[len(row)-1]]; prev.ID.Idx >= o.ID.Idx || prev.Pending() || prev.Res >= o.Inv {
				panic(fmt.Sprintf("check: operations %v and %v of process %d break per-process alternation", prev.ID, o.ID, o.ID.Proc))
			}
		}
		c.byProc[o.ID.Proc] = append(row, i)
		c.readOnly[i] = c.readOnlyOp(o.Op)
		if c.pr.dead != nil {
			c.pr.add(ops, i, c.byProc[o.ID.Proc])
		}
		if !o.Pending() {
			c.nComplete++
		}
	}
	return c
}

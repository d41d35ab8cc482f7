package check

import (
	"fmt"
	"sort"

	"github.com/drv-go/drv/exp/trace"
)

// The batch clause checkers: the from-scratch reference the per-symbol
// Counter and ECLedger are tested against. Each judges a whole finite word
// at once, over its operation list, and shares no state with the per-symbol
// checkers.

// WECSafety checks the two safety clauses of the weakly-eventual consistent
// counter (Definition 2.7) on a finite word and returns the first violation,
// or nil:
//
//	(1) every read of a process returns at least the number of inc operations
//	    of the same process that precede it, and
//	(2) every read of a process returns at least the value of the process's
//	    previous read.
//
// Clause (3) is a liveness property of ω-words; see Converges for the
// finite-trace diagnostic and the experiment harness for ground-truth
// labelled sources.
func WECSafety(w trace.Word) *Violation {
	ops := trace.Operations(w)
	myIncs := map[int]int64{}   // proc -> completed incs so far
	lastRead := map[int]int64{} // proc -> last read value
	for _, o := range ops {
		if o.Pending() {
			continue
		}
		switch o.Op {
		case trace.OpInc:
			myIncs[o.ID.Proc]++
		case trace.OpRead:
			v, ok := o.Ret.(trace.Int)
			if !ok {
				return &Violation{Op: o, Reason: "read returned a non-integer value"}
			}
			if int64(v) < myIncs[o.ID.Proc] {
				return &Violation{Op: o, Reason: fmt.Sprintf(
					"clause (1): returned %d < %d own preceding incs", v, myIncs[o.ID.Proc])}
			}
			if prev, seen := lastRead[o.ID.Proc]; seen && int64(v) < prev {
				return &Violation{Op: o, Reason: fmt.Sprintf(
					"clause (2): returned %d < previous read %d", v, prev)}
			}
			lastRead[o.ID.Proc] = int64(v)
		}
	}
	return nil
}

// SECSafety checks the safety clauses of the strongly-eventual consistent
// counter (Definition 2.8): WEC clauses (1)–(2) plus
//
//	(4) every read returns at most the number of inc operations that precede
//	    or are concurrent with it.
//
// An inc precedes-or-is-concurrent-with a read exactly when the inc's
// invocation appears before the read's response, which makes clause (4) a
// real-time-sensitive property — the reason SEC_COUNT is not real-time
// oblivious and hence undecidable against A (Theorem 5.2).
func SECSafety(w trace.Word) *Violation {
	if v := WECSafety(w); v != nil {
		return v
	}
	ops := trace.Operations(w)
	for _, o := range ops {
		if o.Pending() || o.Op != trace.OpRead {
			continue
		}
		bound := 0
		for _, inc := range ops {
			if inc.Op == trace.OpInc && inc.Inv < o.Res {
				bound++
			}
		}
		v := o.Ret.(trace.Int)
		if int(v) > bound {
			return &Violation{Op: o, Reason: fmt.Sprintf(
				"clause (4): returned %d > %d incs preceding or concurrent", v, bound)}
		}
	}
	return nil
}

// ECLedgerSafety checks clause (1) of the eventually consistent ledger
// (Definition 2.9) on a finite prefix: it must be possible to append response
// symbols so every operation completes, and to permute the operations —
// without any process-order or real-time constraint — into a sequential
// history valid for the ledger.
//
// For the deterministic ledger this reduces to: the distinct return values of
// complete get operations must form a chain in the prefix order, and the
// longest returned sequence must be buildable from the word's append
// operations (each used at most once). Pending operations and unread appends
// impose no constraint, since their completions can be placed after every
// complete get. Returns the first violation found, or nil.
func ECLedgerSafety(w trace.Word) *Violation {
	ops := trace.Operations(w)
	var gets []trace.Operation
	appends := map[trace.Rec]int{} // record -> multiplicity among append ops
	for _, o := range ops {
		switch o.Op {
		case trace.OpAppend:
			r, ok := o.Arg.(trace.Rec)
			if !ok {
				return &Violation{Op: o, Reason: "append with non-record argument"}
			}
			appends[r]++
		case trace.OpGet:
			if o.Pending() {
				continue
			}
			if _, ok := o.Ret.(trace.Seq); !ok {
				return &Violation{Op: o, Reason: "get returned a non-sequence value"}
			}
			gets = append(gets, o)
		}
	}
	// Sort complete gets by return length; each must extend the previous.
	sort.SliceStable(gets, func(i, j int) bool {
		return len(gets[i].Ret.(trace.Seq)) < len(gets[j].Ret.(trace.Seq))
	})
	var longest trace.Seq
	for _, g := range gets {
		s := g.Ret.(trace.Seq)
		if len(s) < len(longest) || !longest.Equal(s[:len(longest)]) {
			return &Violation{Op: g, Reason: fmt.Sprintf(
				"clause (1): return %v does not extend %v", s, longest)}
		}
		longest = s
	}
	// The longest return must be realizable from the available appends.
	used := map[trace.Rec]int{}
	for i, r := range longest {
		used[r]++
		if used[r] > appends[r] {
			g := gets[len(gets)-1]
			return &Violation{Op: g, Reason: fmt.Sprintf(
				"clause (1): position %d returns record %q appended fewer than %d times", i, r, used[r])}
		}
	}
	return nil
}

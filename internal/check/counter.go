package check

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
)

// Violation describes why a safety check failed, pointing at the offending
// operation.
type Violation struct {
	Op     trace.Operation
	Reason string
}

// Error renders the violation; Violation is used as a report, not an error
// value, but a readable rendering helps experiment logs.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Op, v.Reason)
}

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

// Converges is the finite-trace diagnostic for clause (3) of the eventual
// counters: if the word's suffix after the last inc response contains reads,
// the final read of every process that reads in that suffix must return the
// total number of incs invoked in the word. It reports false for traces that
// end mid-convergence, so it is a diagnostic for quiescent trace tails, not a
// language membership test (membership of ω-words is handled by labelled
// sources in the experiment harness).
func Converges(w trace.Word) bool {
	ops := trace.Operations(w)
	totalIncs := 0
	lastIncEnd := -1
	for _, o := range ops {
		if o.Op == trace.OpInc {
			totalIncs++
			if o.Res > lastIncEnd {
				lastIncEnd = o.Res
			}
		}
	}
	finalRead := map[int]int64{}
	sawRead := false
	for _, o := range ops {
		if o.Pending() || o.Op != trace.OpRead || o.Inv < lastIncEnd {
			continue
		}
		sawRead = true
		finalRead[o.ID.Proc] = int64(o.Ret.(trace.Int))
	}
	if !sawRead {
		return false
	}
	for _, v := range finalRead {
		if v != int64(totalIncs) {
			return false
		}
	}
	return true
}

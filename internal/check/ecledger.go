package check

import (
	"fmt"
	"sort"

	"github.com/drv-go/drv/exp/trace"
)

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

// ECLedgerConverges is the finite-trace diagnostic for clause (2): the final
// complete get of every process that performs a get after the last append
// must contain every record appended in the word. Like Converges it reports
// on quiescent trace tails only.
func ECLedgerConverges(w trace.Word) bool {
	ops := trace.Operations(w)
	want := map[trace.Rec]int{}
	lastAppendEnd := -1
	for _, o := range ops {
		if o.Op == trace.OpAppend {
			want[o.Arg.(trace.Rec)]++
			if o.Res > lastAppendEnd {
				lastAppendEnd = o.Res
			}
		}
	}
	finalGet := map[int]trace.Seq{}
	sawGet := false
	for _, o := range ops {
		if o.Pending() || o.Op != trace.OpGet || o.Inv < lastAppendEnd {
			continue
		}
		sawGet = true
		finalGet[o.ID.Proc] = o.Ret.(trace.Seq)
	}
	if !sawGet {
		return false
	}
	for _, s := range finalGet {
		have := map[trace.Rec]int{}
		for _, r := range s {
			have[r]++
		}
		for r, n := range want {
			if have[r] < n {
				return false
			}
		}
	}
	return true
}

package check

import (
	"github.com/drv-go/drv/exp/trace"
)

// ECLedgerConverges is the finite-trace diagnostic for clause (2) of the
// eventually consistent ledger (Definition 2.9): the final complete get of
// every process that performs a get after the last append must contain every
// record appended in the word. Like Converges it reports on quiescent trace
// tails only. A word with an append of a non-record or a get that returns no
// sequence does not converge.
func ECLedgerConverges(w trace.Word) bool {
	ops := trace.Operations(w)
	want := map[trace.Rec]int{}
	lastAppendEnd := -1
	for _, o := range ops {
		if o.Op == trace.OpAppend {
			r, ok := o.Arg.(trace.Rec)
			if !ok {
				return false
			}
			want[r]++
			if o.Res > lastAppendEnd {
				lastAppendEnd = o.Res
			}
		}
	}
	finalGet := map[int]trace.Seq{}
	for _, o := range ops {
		if o.Pending() || o.Op != trace.OpGet {
			continue
		}
		s, ok := o.Ret.(trace.Seq)
		if !ok {
			return false
		}
		if o.Inv >= lastAppendEnd {
			finalGet[o.ID.Proc] = s
		}
	}
	if len(finalGet) == 0 {
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

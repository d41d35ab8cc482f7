package check

import (
	"github.com/drv-go/drv/exp/trace"
)

// BruteLinearizable is an exhaustive reference implementation of the
// linearizability check used to cross-validate the memoized search: it
// enumerates every subset of pending operations to keep, every permutation of
// the kept operations, and tests real-time order plus validity directly.
// Exponential in both dimensions; for tests on histories of ≤ ~8 operations.
func BruteLinearizable(obj trace.Object, w trace.Word) bool {
	return bruteSearch(obj, trace.Operations(w), true)
}

// BruteSeqConsistent is the exhaustive reference for SeqConsistent.
func BruteSeqConsistent(obj trace.Object, w trace.Word) bool {
	return bruteSearch(obj, trace.Operations(w), false)
}

func bruteSearch(obj trace.Object, ops []trace.Operation, realTime bool) bool {
	var pendingIdx []int
	for i, o := range ops {
		if o.Pending() {
			pendingIdx = append(pendingIdx, i)
		}
	}
	// Enumerate subsets of pending operations to keep.
	for mask := 0; mask < 1<<len(pendingIdx); mask++ {
		kept := make([]trace.Operation, 0, len(ops))
		for _, o := range ops {
			if !o.Pending() {
				kept = append(kept, o)
			}
		}
		for b, idx := range pendingIdx {
			if mask&(1<<b) != 0 {
				kept = append(kept, ops[idx])
			}
		}
		if permuteValid(obj, kept, realTime) {
			return true
		}
	}
	return false
}

// permuteValid enumerates permutations of ops and accepts if any is a valid
// sequential history respecting the required order.
func permuteValid(obj trace.Object, ops []trace.Operation, realTime bool) bool {
	n := len(ops)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return checkPerm(obj, ops, perm, realTime)
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm[k] = i
			if rec(k + 1) {
				return true
			}
			used[i] = false
		}
		return false
	}
	return rec(0)
}

func checkPerm(obj trace.Object, ops []trace.Operation, perm []int, realTime bool) bool {
	// Order constraints.
	pos := make([]int, len(ops))
	for k, i := range perm {
		pos[i] = k
	}
	for i := range ops {
		for j := range ops {
			if i == j {
				continue
			}
			var mustBefore bool
			if realTime {
				mustBefore = ops[i].Precedes(ops[j])
			} else {
				mustBefore = ops[i].ID.Proc == ops[j].ID.Proc && ops[i].ID.Idx < ops[j].ID.Idx
			}
			if mustBefore && pos[i] > pos[j] {
				return false
			}
		}
	}
	// Validity.
	st := obj.Init()
	for _, i := range perm {
		next, ret, ok := st.Apply(ops[i].Op, ops[i].Arg)
		if !ok {
			return false
		}
		if !ops[i].Pending() && !ret.Equal(ops[i].Ret) {
			return false
		}
		st = next
	}
	return true
}

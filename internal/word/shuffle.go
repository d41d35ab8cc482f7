// Package word holds the shuffle operator over the distributed words of
// exp/trace: Definition 5.2's shuffle x1 ⧢ ... ⧢ xm is the set of all
// interleavings of the words, and the real-time obliviousness
// characterization in internal/core (Definition 5.3) ranges over it. The
// shuffles of interest are always of the per-process projections
// α|1, ..., α|n of a finite prefix α, so the functions below take the parts
// directly.
package word

import "github.com/drv-go/drv/exp/trace"

// Shuffles enumerates every interleaving of the given parts, invoking visit
// on each. Enumeration stops early if visit returns false. The number of
// interleavings is the multinomial coefficient of the part lengths, so
// callers should bound part sizes (tests use |α| ≤ ~12).
func Shuffles(parts []trace.Word, visit func(trace.Word) bool) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	idx := make([]int, len(parts))
	cur := make(trace.Word, 0, total)
	var rec func() bool
	rec = func() bool {
		if len(cur) == total {
			return visit(cur.Clone())
		}
		for i, p := range parts {
			if idx[i] < len(p) {
				cur = append(cur, p[idx[i]])
				idx[i]++
				ok := rec()
				idx[i]--
				cur = cur[:len(cur)-1]
				if !ok {
					return false
				}
			}
		}
		return true
	}
	rec()
}

// ProcParts splits a word into its per-process projections α|0, ..., α|n−1
// for an n-process alphabet, the parts whose shuffle Definition 5.3 ranges
// over.
func ProcParts(w trace.Word, n int) []trace.Word {
	parts := make([]trace.Word, n)
	for i := 0; i < n; i++ {
		parts[i] = w.Project(i)
	}
	return parts
}

// InShuffle reports whether cand is an interleaving of the parts, i.e.
// cand ∈ parts[0] ⧢ ... ⧢ parts[m-1]. It always runs a backtracking search
// over which part supplies each next symbol. The search is exponential in
// the worst case, when several parts' heads carry equal symbols; for
// projections of distinct processes no two heads are equal, so it never
// backtracks.
func InShuffle(cand trace.Word, parts []trace.Word) bool {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if len(cand) != total {
		return false
	}
	idx := make([]int, len(parts))
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == len(cand) {
			return true
		}
		for i, p := range parts {
			if idx[i] < len(p) && p[idx[i]].Equal(cand[pos]) {
				idx[i]++
				if rec(pos + 1) {
					idx[i]--
					return true
				}
				idx[i]--
			}
		}
		return false
	}
	return rec(0)
}

package core

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/lang"
)

// Real-time obliviousness (Definition 5.3): L is real-time oblivious if for
// every αβ ∈ L with α finite, α′β ∈ L for every shuffle α′ of α's
// projections. Theorem 5.2 proves every P-decidable language — under any
// decidability predicate — is real-time oblivious, which is the paper's
// characterization of what is verifiable against the asynchronous adversary.

// RTOWitness is evidence that a language is not real-time oblivious: a prefix
// whose membership-preserving shuffle fails the language's safety test.
type RTOWitness struct {
	// Alpha is the original prefix (safety-consistent with the language).
	Alpha trace.Word
	// Shuffled is the interleaving of Alpha's projections that violates
	// safety.
	Shuffled trace.Word
}

// FindRTOWitness searches the shuffles of alpha's per-process projections for
// one that the language's judge rejects, given that alpha itself passes. It
// returns nil when alpha passes no judgement (alpha itself violates safety)
// or no violating shuffle exists; n is the process count.
//
// A non-nil witness proves the language is not real-time oblivious —
// Definition 5.3 fails for the word αβ for any continuation β keeping αβ in
// the language — and therefore, by Theorem 5.2, the language is not
// P-decidable for any decidability predicate P.
func FindRTOWitness(judge lang.Judge, alpha trace.Word, n int) *RTOWitness {
	safetyViolated := func(w trace.Word) bool { return judge.Violation(w, nil) != nil }
	if safetyViolated(alpha) {
		return nil
	}
	parts := procParts(alpha, n)
	var witness *RTOWitness
	shuffles(parts, func(cand trace.Word) bool {
		if safetyViolated(cand) {
			witness = &RTOWitness{Alpha: alpha.Clone(), Shuffled: cand}
			return false
		}
		return true
	})
	return witness
}

// AppendixAWitness constructs the n-process witness of Appendix A showing
// the ledger languages are not real-time oblivious: every process p appends
// record p, then process n−1 gets all records; the shuffle that defers
// process 0's append past the get breaks validity for LIN, SC and EC alike.
func AppendixAWitness(n int) trace.Word {
	b := trace.NewB()
	recs := make(trace.Seq, 0, n)
	for p := 0; p < n; p++ {
		r := trace.Rec(trace.Int(p).String())
		recs = append(recs, r)
		b.Op(p, "append", r, trace.Unit{})
	}
	b.Op(n-1, "get", trace.Unit{}, recs)
	return b.Word()
}

// shuffles enumerates every interleaving of the given parts — the shuffle
// x1 ⧢ ... ⧢ xm of Definition 5.2 — invoking visit on each. Enumeration stops
// early if visit returns false. The number of interleavings is the
// multinomial coefficient of the part lengths, so callers should bound part
// sizes (tests use |α| ≤ ~12).
func shuffles(parts []trace.Word, visit func(trace.Word) bool) {
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

// procParts splits a word into its per-process projections α|0, ..., α|n−1
// for an n-process alphabet, the parts whose shuffle Definition 5.3 ranges
// over.
func procParts(w trace.Word, n int) []trace.Word {
	parts := make([]trace.Word, n)
	for i := 0; i < n; i++ {
		parts[i] = w.Project(i)
	}
	return parts
}

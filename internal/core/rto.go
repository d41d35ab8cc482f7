package core

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/word"
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
// one that violates the language's safety test, given that alpha itself does
// not. It returns nil when alpha passes no judgement (alpha itself violates
// safety) or no violating shuffle exists. safetyViolated must be the
// language's prefix-falsification test; n is the process count.
//
// A non-nil witness proves the language is not real-time oblivious —
// Definition 5.3 fails for the word αβ for any continuation β keeping αβ in
// the language — and therefore, by Theorem 5.2, the language is not
// P-decidable for any decidability predicate P.
func FindRTOWitness(safetyViolated func(trace.Word) bool, alpha trace.Word, n int) *RTOWitness {
	if safetyViolated(alpha) {
		return nil
	}
	parts := word.ProcParts(alpha, n)
	var witness *RTOWitness
	word.Shuffles(parts, func(cand trace.Word) bool {
		if safetyViolated(cand) {
			witness = &RTOWitness{Alpha: alpha.Clone(), Shuffled: cand}
			return false
		}
		return true
	})
	return witness
}

// ShuffleClosed reports whether every shuffle of alpha's projections passes
// the safety test — the bounded empirical content of real-time obliviousness
// for one prefix. Languages classified real-time oblivious (WEC_COUNT) must
// be shuffle-closed on every safety-consistent prefix.
func ShuffleClosed(safetyViolated func(trace.Word) bool, alpha trace.Word, n int) bool {
	return FindRTOWitness(safetyViolated, alpha, n) == nil
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

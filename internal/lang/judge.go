package lang

import (
	"slices"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
)

// Cond names the safety condition a Judge decides.
type Cond uint8

const (
	LIN Cond = iota + 1 // linearizability over the object (Definitions 2.4, 2.6)
	SC                  // sequential consistency over the object (Definitions 2.3, 2.5)
	EC                  // EC_LED clause (1) (Definition 2.9)
	WEC                 // WEC_COUNT clauses (1)–(2) (Definition 2.7)
	SEC                 // SEC_COUNT clauses (1), (2) and (4) (Definition 2.8)
)

// A Judge decides one safety condition on finite words. Like the
// definitions, it tests every prefix of the word that ends at a response,
// and the word itself: an invocation only adds a pending operation, which
// never has to be placed. For SC and EC this is stronger than a whole-word
// test, since a later symbol can repair a violating prefix. LIN, WEC and SEC
// are prefix-closed — a violating prefix makes every extension violate — so
// for them the per-prefix answer is the whole-word answer.
//
// The object conditions nest: every prefix LIN accepts, SC accepts. So the
// SC judge runs LIN's pass and searches without real-time order only from
// LIN's first violation on, on the same checker, and Violations reads both
// verdicts off that pass.
type Judge struct {
	Cond   Cond
	Object trace.Object // the object LIN and SC range over
}

// Violation is a judge's report: Prefix is the length of the shortest
// violating prefix, and Detail, for the clause conditions only, names the
// failed clause and the operation of w[:Prefix] that failed it.
type Violation struct {
	Prefix int
	Detail string
}

// Violation reports whether, and at which response-ended prefix, w first
// violates the condition; nil means no prefix does. Every condition is one
// forward pass of one checker: LIN and SC of a check.Incremental borrowed
// from pool (nil: a new one) on w numbered densely (see dense), SC riding
// LIN's (see objectPass); EC of a check.ECLedger, and WEC and SEC of a
// check.Counter, whose first violation is the detail.
func (j Judge) Violation(w trace.Word, pool *check.Pool) *Violation {
	switch j.Cond {
	case LIN, SC:
		_, own := j.Violations(w, pool)
		return own
	case EC, WEC, SEC:
		c := clauses(j.Cond)
		if k := firstViolation(c, w, 0); k > 0 {
			return &Violation{Prefix: k, Detail: c.Violation().In(w[:k]).String()}
		}
	}
	return nil
}

// clauses returns a clause condition's per-symbol checker.
func clauses(cond Cond) interface {
	Append(trace.Symbol)
	OK() bool
	Violation() *check.Fault
} {
	if cond == EC {
		return check.NewECLedger()
	}
	return check.NewCounter(cond == SEC)
}

// Violations returns LIN's violation of w over the judge's object and the
// judge's own, as two Violation calls would. An SC judge reads both off one
// pass of one checker (objectPass), and a LIN judge returns its one verdict
// twice.
func (j Judge) Violations(w trace.Word, pool *check.Pool) (lin, own *Violation) {
	if j.Cond != LIN && j.Cond != SC {
		return Judge{Cond: LIN, Object: j.Object}.Violation(w, pool), j.Violation(w, pool)
	}
	l, sc := objectPass(j.Object, w, pool, j.Cond == SC)
	if j.Cond == LIN {
		sc = l
	}
	return violationAt(l), violationAt(sc)
}

// violationAt is the violation at prefix k, nil for 0.
func violationAt(k int) *Violation {
	if k == 0 {
		return nil
	}
	return &Violation{Prefix: k}
}

// objectPass runs LIN's forward pass over w on one checker borrowed from pool
// and returns its first violating prefix, 0 if none. With withSC set it also
// returns SC's, from the same checker: the languages nest — a linearization
// respects process order, so every prefix LIN accepts, SC accepts — and SC's
// first violation is at or after LIN's. So when LIN accepts every prefix, so
// does SC, with no search; otherwise the checker drops real-time order at
// LIN's first violating prefix k and the per-prefix SC test resumes at k,
// keeping the witness, ranks and interned states the LIN pass built.
func objectPass(obj trace.Object, w trace.Word, pool *check.Pool, withSC bool) (lin, sc int) {
	w, n := dense(w)
	c := pool.Get(obj, true, n)
	lin = firstViolation(c, w, 0)
	if lin == 0 || !withSC {
		return lin, 0
	}
	c.DropRealTime()
	return lin, firstViolation(c, w, lin)
}

// dense returns w and its process count when every process id lies in
// [0,len(w)), which bounds the checker's rows by the word's length, and
// otherwise a copy of w numbered 0..k-1 in ascending id order, and k. Symbols
// keep their positions, so prefix lengths carry over.
func dense(w trace.Word) (trace.Word, int) {
	if !slices.ContainsFunc(w, func(s trace.Symbol) bool { return s.Proc < 0 || s.Proc >= len(w) }) {
		return w, w.Procs()
	}
	ids := make([]int, len(w))
	for i, s := range w {
		ids[i] = s.Proc
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := w.Clone()
	for i := range out {
		out[i].Proc, _ = slices.BinarySearch(ids, out[i].Proc)
	}
	return out, len(ids)
}

// firstViolation feeds w[from:] to a checker already fed w[:from] and
// returns the length of the first prefix ending at a response, or of w, that
// it rejects, or 0: a violating word costs one search beyond its last
// accepted prefix. A resumed pass (from > 0, where w[:from] ends at a
// response or is w) judges w[:from] first.
func firstViolation(c interface {
	Append(trace.Symbol)
	OK() bool
}, w trace.Word, from int) int {
	if from > 0 && !c.OK() {
		return from
	}
	for i := from; i < len(w); i++ {
		c.Append(w[i])
		if w[i].Kind == trace.Res && !c.OK() {
			return i + 1
		}
	}
	if !c.OK() {
		return len(w)
	}
	return 0
}

// Converges runs the condition's convergence diagnostic on w's quiescent
// tail, the finite stand-in for an eventual language's liveness clause; ok
// is false for LIN and SC, which have none.
func (j Judge) Converges(w trace.Word) (converged, ok bool) {
	switch j.Cond {
	case EC:
		return check.ECLedgerConverges(w), true
	case WEC, SEC:
		return check.Converges(w), true
	}
	return false, false
}

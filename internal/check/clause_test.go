package check

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// clauseWord builds a well-formed counter or ledger word from fuzz bytes,
// two per symbol: the first picks a process id in [0,8], and the second
// shapes the symbol. An idle process invokes; a pending one responds. Reads
// return small integers and, rarely, a unit; gets mostly return a prefix of
// the records appended so far, sometimes one record ahead or perturbed, and
// rarely a non-sequence; appends rarely carry a non-record. Operations may
// stay pending, in the middle and at the end.
func clauseWord(data []byte, ledger bool) trace.Word {
	recs := []trace.Rec{"a", "b", "c"}
	var order trace.Seq
	var w trace.Word
	pending := map[int]string{}
	for i := 0; i+1 < len(data) && len(w) < 40; i += 2 {
		p, b := int(data[i]%9), data[i+1]
		op, busy := pending[p]
		if !busy {
			var arg trace.Value = trace.Unit{}
			switch {
			case !ledger && b%2 == 0:
				op = trace.OpInc
			case !ledger:
				op = trace.OpRead
			case b%2 == 0:
				op = trace.OpAppend
				if b%32 == 30 {
					arg = trace.Int(int64(b))
				} else {
					r := recs[int(b/2)%len(recs)]
					order = append(order, r)
					arg = r
				}
			default:
				op = trace.OpGet
			}
			w = append(w, trace.NewInv(p, op, arg))
			pending[p] = op
			continue
		}
		var ret trace.Value = trace.Unit{}
		switch op {
		case trace.OpRead:
			if b%16 != 15 {
				ret = trace.Int(int64(b % 6))
			}
		case trace.OpGet:
			s := order[:int(b/4)%(len(order)+1)].Clone()
			switch {
			case b%16 == 15:
				ret = trace.Int(0)
			case b%8 == 1:
				s = append(s, recs[int(b/8)%len(recs)])
			case b%8 == 3 && len(s) > 0:
				s[int(b/8)%len(s)] = recs[int(b/16)%len(recs)]
			}
			if b%16 != 15 {
				ret = s
			}
		}
		w = append(w, trace.NewRes(p, op, ret))
		delete(pending, p)
	}
	return w
}

// clauseChecker is what Counter and ECLedger share.
type clauseChecker interface {
	Append(trace.Symbol)
	OK() bool
	Violation() *Fault
}

// clauseRef pairs a per-symbol clause checker with its batch reference.
type clauseRef struct {
	name    string
	batch   func(trace.Word) *Violation
	checker func() clauseChecker
	ledger  bool
}

var clauseRefs = []clauseRef{
	{"wec", WECSafety, func() clauseChecker { return NewCounter(false) }, false},
	{"sec", SECSafety, func() clauseChecker { return NewCounter(true) }, false},
	{"ec", ECLedgerSafety, func() clauseChecker { return NewECLedger() }, true},
}

// diffClauses streams w through the per-symbol checker and compares its
// verdict on every response-ended prefix, and on w, with the batch
// reference lifted to prefixes. At the first violation the checker's fault
// must name an operation inside the prefix, and for the counters the
// reference's own report on that prefix.
func diffClauses(t *testing.T, ref clauseRef, w trace.Word) (violated bool) {
	t.Helper()
	c := ref.checker()
	for k := 1; k <= len(w); k++ {
		c.Append(w[k-1])
		if w[k-1].Kind != trace.Res && k < len(w) {
			continue
		}
		want := ref.batch(w[:k])
		if c.OK() {
			if want != nil {
				t.Fatalf("%s: prefix %d: checker accepts, reference reports %v\n%v", ref.name, k, want, w[:k])
			}
			continue
		}
		if want == nil {
			t.Fatalf("%s: prefix %d: checker rejects, reference accepts\n%v", ref.name, k, w[:k])
		}
		got := c.Violation().In(w[:k])
		if o := got.Op; o.Inv >= k || o.Res >= k {
			t.Fatalf("%s: prefix %d: fault %v lies outside the prefix\n%v", ref.name, k, got, w[:k])
		}
		if !ref.ledger && got.String() != want.String() {
			t.Fatalf("%s: prefix %d: fault %v, reference %v\n%v", ref.name, k, got, want, w[:k])
		}
		return true
	}
	return false
}

// FuzzClauseCheckers pins the per-symbol clause checkers to their batch
// references on counter and ledger words, ill-typed values and pending
// tails included.
func FuzzClauseCheckers(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 5})                   // inc, then an over-read
	f.Add([]byte{1, 1, 0, 2, 0, 2, 0, 1, 1, 5, 0, 0})       // reads around incs
	f.Add([]byte{8, 3, 8, 15, 2, 2, 3, 3, 2, 2, 3, 4})      // an ill-typed read
	f.Add([]byte{0, 2, 1, 3, 1, 9, 0, 2, 0, 4, 1, 3, 1, 1}) // get ahead of an append
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ref := range clauseRefs {
			diffClauses(t, ref, clauseWord(data, ref.ledger))
		}
	})
}

// TestClauseCheckersMatchReferenceOnBytes runs the fuzz target's
// differential over pseudo-random inputs and requires both verdicts from
// every checker.
func TestClauseCheckersMatchReferenceOnBytes(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 600
	}
	data := make([]byte, 80)
	x := uint32(1)
	for _, ref := range clauseRefs {
		bad := 0
		for i := 0; i < iters; i++ {
			for j := range data {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				data[j] = byte(x)
			}
			if diffClauses(t, ref, clauseWord(data[:2+i%(len(data)-1)], ref.ledger)) {
				bad++
			}
		}
		t.Logf("%s: %d of %d words violate", ref.name, bad, iters)
		if bad < iters/20 || bad > iters*19/20 {
			t.Errorf("%s: %d of %d words violate; the generator is lopsided", ref.name, bad, iters)
		}
	}
}

// TestCounterShowsEveryViolation pins that the counter checker keeps going
// after a violation: each process's clause (1)–(2) violation is shown at its
// own read's response, and Violation stays the first.
func TestCounterShowsEveryViolation(t *testing.T) {
	w := trace.NewB().
		Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(0, trace.OpRead, trace.Unit{}, trace.Int(0)). // clause (1) at 3
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(2)).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)). // clause (2) at 7
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).Word()
	c := NewCounter(false)
	var shown []string
	for _, s := range w {
		c.Append(s)
		if f := c.Shown(); f != nil {
			shown = append(shown, fmt.Sprintf("%d %s", f.At, f.Reason))
		}
	}
	want := []string{
		"3 clause (1): returned 0 < 1 own preceding incs",
		"7 clause (2): returned 1 < previous read 2",
	}
	if fmt.Sprint(shown) != fmt.Sprint(want) {
		t.Fatalf("shown %q, want %q", shown, want)
	}
	if c.OK() || c.Violation().At != 3 {
		t.Fatalf("OK = %v, Violation = %v; want the first, at 3", c.OK(), c.Violation())
	}
}

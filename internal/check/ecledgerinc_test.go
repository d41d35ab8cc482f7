package check

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// diffECLedgerPrefixes compares the incremental checker with ECLedgerSafety
// and with its per-prefix lift on every prefix of w: a checker fed the
// prefix answers ECLedgerSafety, the forward pass answers the lift, and one
// checker queried after every response (the monitor's and the label
// oracle's calling pattern) tracks the lift as the prefix grows.
func diffECLedgerPrefixes(t *testing.T, name string, w trace.Word) {
	t.Helper()
	stream := NewECLedger()
	anyBefore := false // some response-ended proper prefix violates
	for k := 0; k <= len(w); k++ {
		p := w[:k]
		whole := ECLedgerSafety(p) == nil
		fresh := NewECLedger()
		for _, s := range p {
			fresh.Append(s)
		}
		if fresh.OK() != whole {
			t.Fatalf("%s: prefix %d: OK = %v, ECLedgerSafety = %v\n%v", name, k, fresh.OK(), ECLedgerSafety(p), p)
		}
		if fresh.Len() != k {
			t.Fatalf("%s: prefix %d: Len = %d", name, k, fresh.Len())
		}
		wantAny := k > 0 && (anyBefore || !whole)
		if got := firstViolation(NewECLedger(), p) > 0; got != wantAny {
			t.Fatalf("%s: prefix %d: forward pass violated = %v, per-prefix ECLedgerSafety says %v\n%v", name, k, got, wantAny, p)
		}
		if k == 0 {
			continue
		}
		stream.Append(w[k-1])
		if w[k-1].Kind == trace.Res {
			if got := stream.OK(); got != !wantAny {
				t.Fatalf("%s: prefix %d: streamed OK = %v, per-prefix ECLedgerSafety violated = %v\n%v", name, k, got, wantAny, p)
			}
			anyBefore = wantAny
		}
	}
}

func TestECLedgerIncrementalMatchesSafetyOnCases(t *testing.T) {
	for _, tt := range ecLedgerCases {
		diffECLedgerPrefixes(t, tt.name, tt.w)
	}
}

// randomLedgerWord builds a well-formed ledger word over n processes. Most
// gets return a prefix of the order appends were invoked in, so the checker
// meets long clean runs, and a few read one record ahead or return a
// perturbed or arbitrary sequence;
// rare appends of a non-record and gets returning a non-sequence exercise
// the type clauses. Operations may stay pending, in the middle and at the
// end.
func randomLedgerWord(rng *rand.Rand, n, length int) trace.Word {
	recs := []trace.Rec{"a", "b", "c", "d"}
	var order trace.Seq
	var w trace.Word
	pending := make([]string, n)
	for len(w) < length {
		p := rng.Intn(n)
		switch pending[p] {
		case trace.OpAppend:
			w = append(w, trace.NewRes(p, trace.OpAppend, trace.Unit{}))
			pending[p] = ""
		case trace.OpGet:
			var ret trace.Value
			switch r := rng.Intn(20); {
			case r == 0:
				ret = trace.Unit{}
			case r < 3:
				s := make(trace.Seq, rng.Intn(4))
				for i := range s {
					s[i] = recs[rng.Intn(len(recs))]
				}
				ret = s
			case r == 3:
				// Reads a record ahead of its append, which a later
				// append invocation of that record repairs.
				ret = append(order.Clone(), recs[rng.Intn(len(recs))])
			case r == 4 && len(order) > 0:
				s := order[:1+rng.Intn(len(order))].Clone()
				s[rng.Intn(len(s))] = recs[rng.Intn(len(recs))]
				ret = s
			default:
				ret = order[:rng.Intn(len(order)+1)].Clone()
			}
			w = append(w, trace.NewRes(p, trace.OpGet, ret))
			pending[p] = ""
		default:
			if rng.Intn(2) == 0 {
				var arg trace.Value = recs[rng.Intn(len(recs))]
				if rng.Intn(25) == 0 {
					arg = trace.Int(7)
				} else {
					order = append(order, arg.(trace.Rec))
				}
				w = append(w, trace.NewInv(p, trace.OpAppend, arg))
				pending[p] = trace.OpAppend
			} else {
				w = append(w, trace.NewInv(p, trace.OpGet, trace.Unit{}))
				pending[p] = trace.OpGet
			}
		}
	}
	return w
}

func TestECLedgerIncrementalMatchesSafetyOnRandomWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	iters := 600
	if testing.Short() {
		iters = 150
	}
	violating, repaired := 0, 0
	for i := 0; i < iters; i++ {
		w := randomLedgerWord(rng, 1+rng.Intn(3), 2+rng.Intn(40))
		if ECLedgerSafety(w) != nil {
			violating++
		} else if firstViolation(NewECLedger(), w) > 0 {
			repaired++
		}
		diffECLedgerPrefixes(t, fmt.Sprintf("word %d", i), w)
	}
	t.Logf("%d of %d random words violate clause (1); %d more violate only on a prefix", violating, iters, repaired)
	// Both verdicts must be well represented for the differential to mean
	// anything, and so must words a later append repairs: the over-use
	// clause is the one the checker must not make sticky inside Append.
	if violating < iters/10 || violating > iters*9/10 || repaired == 0 {
		t.Errorf("%d of %d random words violate, %d only on a prefix; the generator is lopsided", violating, iters, repaired)
	}
}

func TestECLedgerResetForgetsHistory(t *testing.T) {
	bad := trace.NewB().Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"ghost"}).Word()
	good := trace.NewB().
		Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).Word()
	c := NewECLedger()
	if firstViolation(c, bad) != len(bad) {
		t.Fatal("phantom record accepted")
	}
	c.Reset()
	if k := firstViolation(c, good); k != 0 || c.Len() != len(good) {
		t.Fatalf("after Reset: first violation = %d, Len = %d", k, c.Len())
	}
}

package check

// Differential validation of the read-placement pass (placeRead) on
// histories where at least half the operations are reads, so the pass fires
// and refuses often: registers, counters and ledgers, under linearizability
// and sequential consistency, against the from-scratch generic search on
// every prefix and the brute-force reference on whole words. Two tests then
// pin a history that each of the pass's guards alone decides, so dropping
// either guard fails them.

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// readRichWord generates a history over obj whose operations are reads
// (non-mutating) with probability 3/4, with arguments from randomArg's small
// domain so reads often match several writes. Like linPointWord, each
// operation takes effect strictly inside its interval, so responses arrive
// out of linearization order and operations still open at the end stay
// pending; perturb replaces a response with randomRet's, manufacturing
// violations.
func readRichWord(obj trace.Object, n, steps int, perturb float64, rng *rand.Rand) trace.Word {
	var reads, writes []string
	for _, sig := range obj.Ops() {
		if sig.Mutating {
			writes = append(writes, sig.Name)
		} else {
			reads = append(reads, sig.Name)
		}
	}
	type open struct {
		op      string
		arg     trace.Value
		ret     trace.Value
		applied bool
	}
	pend := make([]*open, n)
	shadow := obj.Init()
	var w trace.Word
	for len(w) < steps {
		p := rng.Intn(n)
		o := pend[p]
		switch {
		case o == nil:
			op := reads[rng.Intn(len(reads))]
			if rng.Intn(4) == 0 {
				op = writes[rng.Intn(len(writes))]
			}
			arg := randomArg(rng, op)
			pend[p] = &open{op: op, arg: arg}
			w = append(w, trace.Symbol{Proc: p, Kind: trace.Inv, Op: op, Val: arg})
		case !o.applied:
			next, ret, ok := shadow.Apply(o.op, o.arg)
			if !ok {
				pend[p] = nil // the operation stays pending forever
				continue
			}
			if rng.Float64() < perturb {
				ret = randomRet(rng, o.op)
			}
			shadow, o.ret, o.applied = next, ret, true
		default:
			w = append(w, trace.Symbol{Proc: p, Kind: trace.Res, Op: o.op, Val: o.ret})
			pend[p] = nil
		}
	}
	return w
}

// readCount returns how many of ops are non-mutating.
func readCount(obj trace.Object, ops []trace.Operation) int {
	mutating := map[string]bool{}
	for _, sig := range obj.Ops() {
		mutating[sig.Name] = sig.Mutating
	}
	k := 0
	for _, o := range ops {
		if !mutating[o.Op] {
			k++
		}
	}
	return k
}

// TestReadRichHistories runs the incremental battery (every prefix against
// the generic search, brute force on small words, the per-prefix query) and
// the one-shot checkers against the generic search and brute force on
// read-rich histories. Histories with fewer reads than writes are discarded,
// and the set must mix verdicts in both order modes.
func TestReadRichHistories(t *testing.T) {
	for _, obj := range []trace.Object{trace.Register(), trace.Counter(), trace.Ledger()} {
		t.Run(obj.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			verdicts := map[[2]bool]int{} // (realTime, ok) -> count
			for kept := 0; kept < 150; {
				w := readRichWord(obj, 2+rng.Intn(3), 6+rng.Intn(14), []float64{0, 0.1, 0.3}[kept%3], rng)
				ops := trace.Operations(w)
				if 2*readCount(obj, ops) < len(ops) {
					continue
				}
				kept++
				checkIncremental(t, obj, w, obj.Name()+"/reads")
				for _, realTime := range []bool{true, false} {
					want := genericOK(obj, ops, realTime)
					if got := checkOps(obj, ops, realTime); got != want {
						t.Fatalf("realTime=%v: one-shot=%v generic=%v on\n%v", realTime, got, want, w)
					}
					if len(ops) <= 8 {
						if brute := bruteSearch(obj, ops, realTime); brute != want {
							t.Fatalf("realTime=%v: generic=%v brute=%v on\n%v", realTime, want, brute, w)
						}
					}
					verdicts[[2]bool{realTime, want}]++
				}
			}
			if len(verdicts) != 4 {
				t.Errorf("verdicts (realTime, ok) -> count = %v; want all four combinations", verdicts)
			}
		})
	}
}

// TestPlaceReadRequiresPlaceable pins the pass's real-time guard. p1's read
// of 0 is invoked after p0's write(1) responded, so it is not linearizable,
// though the read matches the initial state and is p1's front. Placing it
// without asking placeable would accept. Sequential consistency, which has
// no real-time order, does accept.
func TestPlaceReadRequiresPlaceable(t *testing.T) {
	w := trace.Word{
		trace.NewInv(0, trace.OpWrite, trace.Int(1)), trace.NewRes(0, trace.OpWrite, trace.Unit{}),
		trace.NewInv(1, trace.OpRead, trace.Unit{}), trace.NewRes(1, trace.OpRead, trace.Int(0)),
	}
	ops := trace.Operations(w)
	for _, tc := range []struct {
		realTime, want bool
	}{{true, false}, {false, true}} {
		if got := checkOps(trace.Register(), ops, tc.realTime); got != tc.want {
			t.Errorf("realTime=%v: one-shot=%v, want %v", tc.realTime, got, tc.want)
		}
		if got := checkWord(NewIncremental(trace.Register(), tc.realTime, 2), w); got != tc.want {
			t.Errorf("realTime=%v: incremental=%v, want %v", tc.realTime, got, tc.want)
		}
	}
}

// TestPlaceReadRequiresResponse pins the pass's response guard. Each read is
// complete, non-mutating and placeable at the root, but the specification
// answers 0 there: the read of 2 is no history's, and the read of 1 only
// after p0's write(1), which the search must then find by branching.
func TestPlaceReadRequiresResponse(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    trace.Word
		want bool
	}{
		{"no write", trace.Word{
			trace.NewInv(0, trace.OpRead, trace.Unit{}), trace.NewRes(0, trace.OpRead, trace.Int(2)),
		}, false},
		{"concurrent write", trace.Word{
			trace.NewInv(0, trace.OpWrite, trace.Int(1)),
			trace.NewInv(1, trace.OpRead, trace.Unit{}), trace.NewRes(1, trace.OpRead, trace.Int(1)),
			trace.NewInv(1, trace.OpRead, trace.Unit{}), trace.NewRes(1, trace.OpRead, trace.Int(0)),
			trace.NewRes(0, trace.OpWrite, trace.Unit{}),
		}, false},
		{"write placed first", trace.Word{
			trace.NewInv(0, trace.OpWrite, trace.Int(1)),
			trace.NewInv(1, trace.OpRead, trace.Unit{}), trace.NewRes(1, trace.OpRead, trace.Int(1)),
			trace.NewRes(0, trace.OpWrite, trace.Unit{}),
		}, true},
	} {
		ops := trace.Operations(tc.w)
		for _, realTime := range []bool{true, false} {
			if got := checkOps(trace.Register(), ops, realTime); got != tc.want {
				t.Errorf("%s realTime=%v: one-shot=%v, want %v", tc.name, realTime, got, tc.want)
			}
			if got := checkWord(NewIncremental(trace.Register(), realTime, 2), tc.w); got != tc.want {
				t.Errorf("%s realTime=%v: incremental=%v, want %v", tc.name, realTime, got, tc.want)
			}
		}
	}
}

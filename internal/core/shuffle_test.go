package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/drv-go/drv/exp/trace"
)

// inShuffle reports whether cand is an interleaving of the parts, i.e.
// cand ∈ parts[0] ⧢ ... ⧢ parts[m-1]. It always runs a backtracking search
// over which part supplies each next symbol. The search is exponential in
// the worst case, when several parts' heads carry equal symbols; for
// projections of distinct processes no two heads are equal, so it never
// backtracks.
func inShuffle(cand trace.Word, parts []trace.Word) bool {
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

// countShuffles returns the number of interleavings of the parts (the
// multinomial coefficient). It overflows for large inputs; intended for the
// small words used in these tests.
func countShuffles(parts []trace.Word) int {
	// multinomial(total; len(p1), ..., len(pm)) computed incrementally.
	result := 1
	acc := 0
	for _, p := range parts {
		for k := 1; k <= len(p); k++ {
			acc++
			result = result * acc / k
		}
	}
	return result
}

// randomShuffle samples one interleaving of the parts uniformly at random
// using rng, by repeatedly drawing the next part weighted by its remaining
// length.
func randomShuffle(parts []trace.Word, rng *rand.Rand) trace.Word {
	total := 0
	rem := make([]int, len(parts))
	for i, p := range parts {
		rem[i] = len(p)
		total += len(p)
	}
	idx := make([]int, len(parts))
	out := make(trace.Word, 0, total)
	for len(out) < total {
		k := rng.Intn(total - len(out))
		for i := range parts {
			if rem[i] == 0 {
				continue
			}
			if k < rem[i] {
				out = append(out, parts[i][idx[i]])
				idx[i]++
				rem[i]--
				break
			}
			k -= rem[i]
		}
	}
	return out
}

func TestShufflesEnumeration(t *testing.T) {
	a := trace.NewB().Op(0, "inc", trace.Unit{}, trace.Unit{}).Word()  // 2 symbols
	b := trace.NewB().Op(1, "read", trace.Unit{}, trace.Int(0)).Word() // 2 symbols
	want := countShuffles([]trace.Word{a, b})                          // C(4,2) = 6
	if want != 6 {
		t.Fatalf("countShuffles = %d, want 6", want)
	}
	seen := map[string]bool{}
	shuffles([]trace.Word{a, b}, func(w trace.Word) bool {
		if len(w) != 4 {
			t.Fatalf("shuffle has wrong length: %v", w)
		}
		if !inShuffle(w, []trace.Word{a, b}) {
			t.Fatalf("enumerated shuffle not recognized: %v", w)
		}
		seen[w.String()] = true
		return true
	})
	if len(seen) != want {
		t.Errorf("enumerated %d distinct shuffles, want %d", len(seen), want)
	}
}

func TestShufflesEarlyStop(t *testing.T) {
	a := trace.NewB().Op(0, "inc", trace.Unit{}, trace.Unit{}).Word()
	b := trace.NewB().Op(1, "read", trace.Unit{}, trace.Int(0)).Word()
	count := 0
	shuffles([]trace.Word{a, b}, func(trace.Word) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("visited %d shuffles after early stop, want 3", count)
	}
}

func TestInShuffleRejects(t *testing.T) {
	a := trace.NewB().Op(0, "inc", trace.Unit{}, trace.Unit{}).Word()
	b := trace.NewB().Op(1, "read", trace.Unit{}, trace.Int(0)).Word()
	// Wrong length.
	if inShuffle(a, []trace.Word{a, b}) {
		t.Error("short candidate should be rejected")
	}
	// Reordered within one part (response before invocation).
	bad := trace.Word{a[1], a[0], b[0], b[1]}
	if inShuffle(bad, []trace.Word{a, b}) {
		t.Error("part-order-violating candidate should be rejected")
	}
}

func TestRandomShuffleIsShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := trace.NewB().Op(0, "write", trace.Int(1), trace.Unit{}).Op(0, "write", trace.Int(2), trace.Unit{}).Word()
	b := trace.NewB().Op(1, "read", trace.Unit{}, trace.Int(1)).Word()
	c := trace.NewB().Op(2, "read", trace.Unit{}, trace.Int(2)).Word()
	parts := []trace.Word{a, b, c}
	for i := 0; i < 100; i++ {
		s := randomShuffle(parts, rng)
		if !inShuffle(s, parts) {
			t.Fatalf("randomShuffle produced non-shuffle: %v", s)
		}
	}
}

func TestProcPartsRoundTrip(t *testing.T) {
	// Property: any word is in the shuffle of its own projections — this is
	// the identity underlying Definition 5.3 (α ∈ α|1 ⧢ ... ⧢ α|n).
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWellFormed(rng, int(size%10)+2, 3)
		parts := procParts(w, 3)
		return inShuffle(w, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestShufflePreservesProjections(t *testing.T) {
	// Property: every shuffle of projections has the same projections.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		w := randomWellFormed(rng, 6, 2)
		parts := procParts(w, 2)
		s := randomShuffle(parts, rng)
		for i := 0; i < 2; i++ {
			if !s.Project(i).Equal(w.Project(i)) {
				t.Fatalf("projection %d changed: %v vs %v", i, s.Project(i), w.Project(i))
			}
		}
	}
}

// randomWellFormed builds a random well-formed word with the given number of
// symbols over n processes: at each position a process either starts an
// operation or completes its pending one.
func randomWellFormed(rng *rand.Rand, symbols, n int) trace.Word {
	var w trace.Word
	pending := make([]string, n) // "" means no pending op
	for len(w) < symbols {
		p := rng.Intn(n)
		if pending[p] == "" {
			op := []string{"inc", "read", "write"}[rng.Intn(3)]
			var arg trace.Value = trace.Unit{}
			if op == "write" {
				arg = trace.Int(rng.Intn(5))
			}
			w = append(w, trace.NewInv(p, op, arg))
			pending[p] = op
		} else {
			var ret trace.Value = trace.Unit{}
			if pending[p] == "read" {
				ret = trace.Int(rng.Intn(5))
			}
			w = append(w, trace.NewRes(p, pending[p], ret))
			pending[p] = ""
		}
	}
	return w
}

// wordFromBytes deterministically builds a well-formed word from fuzz input:
// each byte picks a process and either opens its next operation or closes
// the pending one, so per-process alternation holds by construction. The
// word length is capped — inShuffle's membership search is exponential in
// the worst case, and the properties under test do not need long words.
func wordFromBytes(data []byte, n int) trace.Word {
	const maxSymbols = 40
	ops := []string{"read", "write", "inc"}
	pending := make([]string, n)
	var w trace.Word
	for _, b := range data {
		if len(w) >= maxSymbols {
			break
		}
		p := int(b) % n
		if pending[p] == "" {
			op := ops[int(b>>3)%len(ops)]
			w = append(w, trace.NewInv(p, op, trace.Int(int64(b>>5))))
			pending[p] = op
		} else {
			w = append(w, trace.NewRes(p, pending[p], trace.Int(int64(b>>4))))
			pending[p] = ""
		}
	}
	return w
}

// FuzzWordProjectionRoundTrip checks the projection/shuffle round trip that
// the real-time obliviousness machinery (Definition 5.3) relies on: a
// well-formed word is an interleaving of its per-process projections, the
// projections partition its symbols exactly, and every operation-level
// helper agrees with the symbol-level view.
func FuzzWordProjectionRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{7, 7, 13, 13, 7, 13, 255, 0, 128, 3})
	f.Add([]byte("interleaving of projections"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 3
		w := wordFromBytes(data, n)
		if err := trace.WellFormed(w); err != nil {
			t.Fatalf("builder produced an ill-formed word: %v", err)
		}

		parts := procParts(w, n)
		total := 0
		for p, part := range parts {
			total += len(part)
			if err := trace.WellFormed(part); err != nil {
				t.Errorf("projection %d ill-formed: %v", p, err)
			}
			for _, s := range part {
				if s.Proc != p {
					t.Errorf("projection %d contains symbol of process %d", p, s.Proc)
				}
			}
		}
		if total != len(w) {
			t.Errorf("projections have %d symbols, word has %d", total, len(w))
		}

		// The round trip: the word is a member of the shuffle of its own
		// projections.
		if !inShuffle(w, parts) {
			t.Errorf("word %v not in the shuffle of its projections", w)
		}

		// Operation extraction agrees with the symbol-level view.
		ops := trace.Operations(w)
		complete, pendingOps := 0, 0
		for _, o := range ops {
			if o.Pending() {
				pendingOps++
			} else {
				complete++
				if !w[o.Inv].Equal(trace.NewInv(o.ID.Proc, o.Op, o.Arg)) {
					t.Errorf("operation %v does not point at its invocation", o)
				}
				if w[o.Res].Proc != o.ID.Proc || w[o.Res].Kind != trace.Res {
					t.Errorf("operation %v does not point at a response of its process", o)
				}
			}
		}
		if got := len(trace.Complete(w)); got != complete {
			t.Errorf("Complete returned %d operations, want %d", got, complete)
		}
		if got := len(trace.PendingOps(w)); got != pendingOps {
			t.Errorf("PendingOps returned %d operations, want %d", got, pendingOps)
		}
	})
}

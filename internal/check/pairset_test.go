package check

import (
	"math/rand"
	"testing"
)

// TestPairSetMatchesMap runs a pairSet against a map through inserts,
// lookups and clears, across growth and a generation wrap.
func TestPairSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s pairSet
	want := map[[2]uint64]bool{}
	key := func() [2]uint64 {
		// Small domains so that keys repeat and share a word.
		return [2]uint64{uint64(rng.Intn(64)) << (4 * rng.Intn(16)), uint64(rng.Intn(1 << rng.Intn(33)))}
	}
	for round := 0; round < 200; round++ {
		if round == 100 {
			s.gen = 1<<32 - 1 // the next Clear wraps
		}
		s.Clear()
		clear(want)
		for range rng.Intn(3000) {
			k := key()
			if got := s.Contains(k[0], k[1]); got != want[k] {
				t.Fatalf("round %d: Contains(%#x, %#x) = %v, want %v", round, k[0], k[1], got, want[k])
			}
			if rng.Intn(2) == 0 {
				s.Insert(k[0], k[1])
				want[k] = true
			}
		}
		if s.count != len(want) {
			t.Fatalf("round %d: %d keys, want %d", round, s.count, len(want))
		}
	}
	if s.gen >= 200 {
		t.Fatalf("generation %d after the wrap, want a small one", s.gen)
	}
}

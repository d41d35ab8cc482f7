package lazyrand

import (
	"math/rand"
	"testing"
)

// draw applies one scripted call to a rand.Rand and returns what it yields.
// Op codes: 0 Int63, 1 Uint64, 2 Intn, 3 Float64, 4 in-place Seed (yields 0).
func draw(r *rand.Rand, op byte, arg int64) uint64 {
	switch op % 5 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(1 + int(uint64(arg)%1000)))
	case 3:
		return uint64(r.Float64() * (1 << 53))
	default:
		r.Seed(arg)
		return 0
	}
}

// same runs script against rand.New(rand.NewSource(seed)) and a Rand over
// this package's Source and reports the first call where they part. Each
// script byte is an op code; its high bits scale how many times it repeats,
// so short scripts still cross the 273- and 607-word boundaries.
func same(t *testing.T, seed int64, script []byte) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := rand.New(NewSource(seed))
	call := 0
	for i, b := range script {
		arg := seed + int64(i)*0x9e3779b9
		if i%3 == 2 {
			arg = -arg
		}
		for rep := 0; rep <= int(b>>3)*8; rep++ {
			w, g := draw(want, b, arg), draw(got, b, arg)
			if w != g {
				t.Fatalf("seed %d: call %d (op %d, script byte %d): math/rand gives %d, Source gives %d", seed, call, b%5, i, w, g)
			}
			call++
		}
	}
}

// TestSourceMatchesMathRand compares the streams over seeds at each
// normalisation boundary and over long runs of every drawing method, with
// in-place reseeds between them.
func TestSourceMatchesMathRand(t *testing.T) {
	long := []byte{0xf8, 0xf9, 0xfa, 0xfb, 0xf8}
	mixed := []byte{0, 1, 2, 3, 4, 0xa1, 0x72, 0xfb, 4, 0x38, 0xc9}
	for _, seed := range []int64{
		0, 1, -1, 42, 89482311,
		modulus, -modulus, 2 * modulus, modulus - 1, modulus + 1,
		1 << 31, 1 << 32, -1 << 40, 1<<63 - 1, -1 << 63,
	} {
		same(t, seed, long)
		same(t, seed, mixed)
	}
}

// TestSeedMidStreamRestarts checks that an in-place Seed partway through a
// rewritten register restarts the stream a fresh source gives.
func TestSeedMidStreamRestarts(t *testing.T) {
	s := NewSource(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(9)
	fresh := rand.NewSource(9).(rand.Source64)
	for i := 0; i < 2*regLen; i++ {
		if w, g := fresh.Uint64(), s.Uint64(); w != g {
			t.Fatalf("draw %d after reseed: want %d, got %d", i, w, g)
		}
	}
}

// FuzzSourceMatchesMathRand fuzzes the seed and a script of Int63, Uint64,
// Intn, Float64 and in-place Seed calls: every value must equal the one
// rand.New(rand.NewSource(seed)) yields.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(-1), []byte{0xf8, 4, 0xf9})
	f.Add(int64(modulus), []byte{0xfb, 0xfa})
	f.Add(int64(3*modulus), []byte{0x88, 0x81})
	f.Add(int64(1)<<31, []byte{0xf8, 0xf8, 0xf8})
	f.Add(int64(-1)<<62, []byte{4, 0xf9, 4, 0xf8})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		same(t, seed, script)
	})
}

// BenchmarkReseedAndDraw times what a scenario pays per source: a reseed
// and a few draws.
func BenchmarkReseedAndDraw(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		r := rand.New(NewSource(1))
		for i := 0; b.Loop(); i++ {
			r.Seed(int64(i))
			r.Intn(10)
			r.Float64()
			r.Int63()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; b.Loop(); i++ {
			r.Seed(int64(i))
			r.Intn(10)
			r.Float64()
			r.Int63()
		}
	})
}

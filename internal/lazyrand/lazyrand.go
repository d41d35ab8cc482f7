// Package lazyrand is math/rand's seeded generator with an O(1) Seed. A
// rand.NewSource register holds 607 words, and seeding it fills all of them,
// while a scenario's workload, policy or network order reseeds its source and
// then draws a few dozen words. Source keeps math/rand's streams exactly but
// computes each register word the first time a draw reads it.
//
// The seed chain is the Lehmer generator x_{k+1} = 48271·x_k mod (2³¹−1),
// and register word i is built from x_{21+3i}, x_{22+3i} and x_{23+3i}, XORed
// with a fixed cooked table. So word i is seed·48271^(21+3i) mod (2³¹−1)
// and two more chain steps away: Source jumps there with a multiplier
// tabulated once. The cooked table comes from the linked math/rand at init,
// recovered from a fresh source's first draws and checked against another
// source's stream, so no constant of math/rand is copied here.
package lazyrand

import (
	"math/rand"
)

const (
	regLen  = 607       // register words (math/rand's rngLen)
	regTap  = 273       // lag of the tap (math/rand's rngTap)
	modulus = 1<<31 - 1 // the seed chain's prime modulus
	lehmer  = 48271     // the seed chain's multiplier
	// zeroSeed is the seed math/rand substitutes for one ≡ 0 mod modulus.
	zeroSeed = 89482311
)

var (
	// jump[i] is lehmer^(21+3i) mod modulus: the multiplier that takes the
	// normalised seed to the first chain value of register word i.
	jump [regLen]uint64
	// cooked is the table math/rand XORs into every seeded register word.
	cooked [regLen]uint64
)

// Source is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed), for Int63 and Uint64 alike, and that Seed re-arms in
// O(1). It is not safe for concurrent use, like the source it mirrors.
type Source struct {
	seed      uint64 // normalised seed in [1, modulus)
	tap, feed int
	// known has bit i set once vec[i] holds register word i of this seed.
	known [(regLen + 63) / 64]uint64
	vec   [regLen]uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source seeded with seed; rand.New(NewSource(seed))
// draws what rand.New(rand.NewSource(seed)) draws.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed re-arms the source for seed, normalised as math/rand does: modulo
// 2³¹−1, negative seeds shifted up, and 0 replaced by 89482311. It only
// records the seed; register words are computed as draws reach them.
func (s *Source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, regLen-regTap
	s.known = [len(s.known)]uint64{}
}

// Uint64 returns the next 64-bit value of the lagged Fibonacci stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// word returns register word i, computing its seeded value on first read.
func (s *Source) word(i int) uint64 {
	if bit := uint64(1) << (i & 63); s.known[i>>6]&bit == 0 {
		s.known[i>>6] |= bit
		s.vec[i] = seedWord(s.seed, i) ^ cooked[i]
	}
	return s.vec[i]
}

// seedWord is register word i of a normalised seed before the cooked XOR:
// three consecutive chain values packed at bit offsets 40, 20 and 0, the
// first shifted out past bit 63 as in math/rand's int64 arithmetic.
func seedWord(seed uint64, i int) uint64 {
	x := seed * jump[i] % modulus
	u := x << 40
	x = x * lehmer % modulus
	u ^= x << 20
	x = x * lehmer % modulus
	return u ^ x
}

func init() {
	m := uint64(1)
	for k := 0; k < 21; k++ {
		m = m * lehmer % modulus
	}
	step := uint64(lehmer) * lehmer % modulus * lehmer % modulus
	for i := range jump {
		jump[i] = m
		m = m * step % modulus
	}

	// Recover a fresh source's register from its first regLen draws. Number
	// the stream so that s[0..606] is the register and s[606+j] the j-th
	// draw: s[n] = s[n−607] + s[n−273], so s[k] = s[k+607] − s[k+334],
	// solved from the top down. The first draw adds vec[333] and vec[606],
	// which places s[k] at vec[333−k] for k ≤ 333 and at vec[940−k] above.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var seq [2 * regLen]uint64
	for k := regLen; k < len(seq); k++ {
		seq[k] = src.Uint64()
	}
	for k := regLen - 1; k >= 0; k-- {
		seq[k] = seq[k+regLen] - seq[k+regLen-regTap]
	}
	for i := range cooked {
		k := regLen - regTap - 1 - i
		if i >= regLen-regTap {
			k = 2*regLen - regTap - 1 - i
		}
		cooked[i] = seq[k] ^ seedWord(probe, i)
	}

	// The table must reproduce other seeds' streams too, past the point
	// where every register word has been drawn and rewritten.
	for _, seed := range []int64{0, -7, 1 << 40} {
		want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		for d := 0; d < 3*regLen; d++ {
			if want.Uint64() != got.Uint64() {
				panic("lazyrand: cannot reproduce math/rand's seeded stream")
			}
		}
	}
}

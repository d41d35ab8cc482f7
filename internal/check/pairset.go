package check

import "math/bits"

// pairSet is an open-addressing hash set of two-word keys (fronts, id), the
// memo of the search nodes whose fronts pack into one word and whose state is
// interned (see packKey). Keys are stored in the table itself: a lookup
// hashes two words with two multiplications and compares two words, with no
// arena, no byte hashing and no byte comparison. Like byteSet, Clear is
// constant-time and a set grown to a workload's size inserts without
// allocating.
type pairSet struct {
	// slots hold (fronts, tag) pairs, tag = generation<<32 | id; a slot whose
	// generation is not current is empty. Bumping gen empties the table at
	// once. Only ids below 1<<32 are stored, so the two fit one word.
	slots [][2]uint64
	gen   uint64 // current generation, in [1, 1<<32) once cleared
	count int    // keys of the current generation
	shift uint   // 64 - log2(len(slots))
}

// Clear empties the set in constant time, keeping the table. Every 2³²−1
// clears the generation wraps, and the table is zeroed once so that no slot
// of an old generation reads as current.
func (s *pairSet) Clear() {
	s.count = 0
	s.gen++
	if s.gen == 1<<32 {
		clear(s.slots)
		s.gen = 1
	}
}

// slot returns the first probe position of (fronts, id): a multiplicative
// hash of both words, whose top bits index the table.
func (s *pairSet) slot(fronts, id uint64) uint64 {
	return ((fronts*0x9e3779b97f4a7c15 ^ id) * 0xbf58476d1ce4e5b9) >> s.shift
}

// Contains reports whether (fronts, id) is in the set; id is below 1<<32.
func (s *pairSet) Contains(fronts, id uint64) bool {
	if len(s.slots) == 0 {
		return false
	}
	tag := s.gen<<32 | id
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(fronts, id); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e[1]>>32 != s.gen {
			return false
		}
		if e[0] == fronts && e[1] == tag {
			return true
		}
	}
}

// Insert adds (fronts, id) to the set; id is below 1<<32.
func (s *pairSet) Insert(fronts, id uint64) {
	if (s.count+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	tag := s.gen<<32 | id
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(fronts, id); ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e[1]>>32 != s.gen {
			*e = [2]uint64{fronts, tag}
			s.count++
			return
		}
		if e[0] == fronts && e[1] == tag {
			return
		}
	}
}

// grow moves the current keys into a new table of twice the size (16 slots
// at first). The new table is zeroed, and gen is never 0 once the set is in
// use, so its slots start empty.
func (s *pairSet) grow() {
	old := s.slots
	size := max(16, 2*len(old))
	s.slots = make([][2]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if s.gen == 0 {
		s.gen = 1
	}
	mask := uint64(size - 1)
	for _, e := range old {
		if e[1]>>32 != s.gen {
			continue
		}
		i := s.slot(e[0], e[1]&0xffffffff)
		for s.slots[i][1]>>32 == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

package check

import "hash/maphash"

// byteSet is an open-addressing hash set of byte-string keys, stored in one
// append-only arena: inserting copies the key bytes into the arena and the
// table holds small fixed-width references. Unlike map[string]struct{}, no
// per-key string allocation survives an insert, Clear is constant-time and
// releases nothing, and a set that has grown to a workload's size inserts
// without allocating — the properties the witness-search memos and the
// incremental checker need to keep their steady state allocation-free.
type byteSet struct {
	// tab packs (generation << 32 | 1-based index into offs/ends) per slot;
	// a slot whose generation is not current is empty. Bumping gen empties
	// the whole table at once, so the fill/clear cycle of each witness
	// re-search never pays to zero it.
	tab   []uint64
	gen   uint64 // current generation, pre-shifted; bumped before first use
	offs  []int32
	ends  []int32
	arena []byte
}

// Clear empties the set in constant time, keeping every backing array.
func (s *byteSet) Clear() {
	s.gen += 1 << 32
	s.offs = s.offs[:0]
	s.ends = s.ends[:0]
	s.arena = s.arena[:0]
}

// Contains reports whether key is in the set.
func (s *byteSet) Contains(key []byte) bool {
	if len(s.tab) == 0 {
		return false
	}
	mask := uint32(len(s.tab) - 1)
	for i := hashBytes(key) & mask; ; i = (i + 1) & mask {
		e := s.tab[i]
		if e&^0xffffffff != s.gen {
			return false
		}
		j := uint32(e)
		if string(s.arena[s.offs[j-1]:s.ends[j-1]]) == string(key) {
			return true
		}
	}
}

// Insert adds key to the set and reports whether it was absent. The key
// bytes are copied; the caller may reuse its buffer.
func (s *byteSet) Insert(key []byte) bool {
	if len(s.tab) == 0 {
		s.grow(16)
	} else if (len(s.offs)+1)*4 > len(s.tab)*3 {
		s.grow(len(s.tab) * 2)
	}
	mask := uint32(len(s.tab) - 1)
	for i := hashBytes(key) & mask; ; i = (i + 1) & mask {
		e := s.tab[i]
		if e&^0xffffffff != s.gen {
			off := int32(len(s.arena))
			s.arena = append(s.arena, key...)
			s.offs = append(s.offs, off)
			s.ends = append(s.ends, off+int32(len(key)))
			s.tab[i] = s.gen | uint64(len(s.offs))
			return true
		}
		j := uint32(e)
		if string(s.arena[s.offs[j-1]:s.ends[j-1]]) == string(key) {
			return false
		}
	}
}

// grow rehashes the current keys into a table of the given power-of-two
// size. The fresh table starts a fresh generation, so old slots need no
// zeroing beyond the allocation (or reuse) itself.
func (s *byteSet) grow(size int) {
	s.gen += 1 << 32 // a fresh generation empties reused slots without zeroing
	if cap(s.tab) >= size {
		s.tab = s.tab[:size]
	} else {
		s.tab = make([]uint64, size)
	}
	mask := uint32(size - 1)
	for j := range s.offs {
		key := s.arena[s.offs[j]:s.ends[j]]
		for i := hashBytes(key) & mask; ; i = (i + 1) & mask {
			if s.tab[i]&^0xffffffff != s.gen {
				s.tab[i] = s.gen | uint64(j+1)
				break
			}
		}
	}
}

// hashSeed keys the memo hashes. The seed is per-process random, which only
// perturbs probe order inside one set — memo semantics (and hence verdicts)
// never depend on it.
var hashSeed = maphash.MakeSeed()

// hashBytes hashes a key through the runtime's bulk hash, which processes
// words at a time — memo keys are hashed at every search node, so the
// byte-at-a-time FNV this replaces was a top-line cost of hard searches.
func hashBytes(b []byte) uint32 {
	return uint32(maphash.Bytes(hashSeed, b))
}

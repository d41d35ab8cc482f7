package trace

// slab allocates the nodes of one interned state tree and numbers them 1, 2,
// 3, … in allocation order. Nodes come from chunks that start small and
// double up to maxSlabChunk, so a tiny search pays for a handful of nodes
// rather than a full chunk, and a large one pays one allocation per chunk
// rather than per node.
type slab[T any] struct {
	free []T    // the unused rest of the current chunk
	size int    // length of the current chunk
	ids  uint64 // ids handed out so far
}

const (
	minSlabChunk = 4
	maxSlabChunk = 512
)

// alloc returns a zeroed node and its id.
func (s *slab[T]) alloc() (*T, uint64) {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, minSlabChunk), maxSlabChunk)
		s.free = make([]T, s.size)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	s.ids++
	return x, s.ids
}

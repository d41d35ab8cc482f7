// Package mem is the shared-memory substrate of the computation model
// (Section 3): atomic read/write registers and arrays accessed one scheduler
// step per primitive operation, an atomic snapshot (the paper's default,
// implementable wait-free from read/write registers [1]), the actual
// AADGMS wait-free snapshot protocol built from single-writer registers, the
// weaker collect operation discussed in Section 6.2, and compare&swap cells
// used to exercise the claim that the impossibility results hold under
// primitives of arbitrarily high consensus number.
//
// Every exported operation consumes scheduler steps via the calling process's
// Proc handle, so asynchrony between operations is entirely under the
// scheduling policy's control.
package mem

import (
	"github.com/drv-go/drv/internal/sched"
)

// Register is an atomic read/write register. The zero value holds the zero
// value of T.
type Register[T any] struct {
	v T
}

// Read returns the register's value; one atomic step.
func (r *Register[T]) Read(p *sched.Proc) T {
	p.Pause()
	return r.v
}

// Write stores v; one atomic step.
func (r *Register[T]) Write(p *sched.Proc, v T) {
	p.Pause()
	r.v = v
}

// Array is a shared array of n cells supporting reads, writes and a snapshot
// that returns all cells. The three implementations differ in the snapshot's
// guarantees and cost:
//
//   - AtomicArray: snapshot is one atomic step (the model's primitive).
//   - SnapshotArray: the AADGMS protocol — wait-free and linearizable, built
//     only from reads and writes of single-writer registers.
//   - CollectArray: snapshot is a collect — n independent reads, not atomic.
//
// Monitors are written against this interface so the Section 6.2
// snapshot-versus-collect trade-off is a drop-in ablation.
type Array[T any] interface {
	// Len returns the number of cells.
	Len() int
	// Read returns cell i; at least one step.
	Read(p *sched.Proc, i int) T
	// Write stores v into cell i; at least one step. For SnapshotArray the
	// writer must own the cell (single-writer discipline).
	Write(p *sched.Proc, i int, v T)
	// Snapshot returns a copy of all cells.
	Snapshot(p *sched.Proc) []T
	// SnapshotInto is Snapshot into the caller's buffer: it takes the same
	// steps, returns dst resized to Len() cells holding the copy, and
	// allocates only when dst lacks the capacity. Call sites that do not
	// keep the copy past their next snapshot pass the previous result back.
	SnapshotInto(p *sched.Proc, dst []T) []T
	// Reset restores the array to n cells all holding init, reusing the
	// backing storage where capacity allows — the pooled-lifecycle hook that
	// lets a system under test be re-deployed without reallocating its
	// substrate.
	Reset(n int, init T)
}

// AtomicArray implements Array with a one-step atomic snapshot.
type AtomicArray[T any] struct {
	cells []T
}

// NewAtomicArray returns an n-cell atomic array, each cell holding init.
func NewAtomicArray[T any](n int, init T) *AtomicArray[T] {
	a := &AtomicArray[T]{}
	a.Reset(n, init)
	return a
}

// Reset implements Array.
func (a *AtomicArray[T]) Reset(n int, init T) {
	if cap(a.cells) >= n {
		a.cells = a.cells[:n]
	} else {
		a.cells = make([]T, n)
	}
	for i := range a.cells {
		a.cells[i] = init
	}
}

// Len implements Array.
func (a *AtomicArray[T]) Len() int { return len(a.cells) }

// Read implements Array; one step.
func (a *AtomicArray[T]) Read(p *sched.Proc, i int) T {
	p.Pause()
	return a.cells[i]
}

// Write implements Array; one step.
func (a *AtomicArray[T]) Write(p *sched.Proc, i int, v T) {
	p.Pause()
	a.cells[i] = v
}

// Snapshot implements Array; one atomic step.
func (a *AtomicArray[T]) Snapshot(p *sched.Proc) []T { return a.SnapshotInto(p, nil) }

// SnapshotInto implements Array; one atomic step.
func (a *AtomicArray[T]) SnapshotInto(p *sched.Proc, dst []T) []T {
	p.Pause()
	dst = resize(dst, len(a.cells))
	copy(dst, a.cells)
	return dst
}

// resize returns s with length n, reusing its backing array when it is large
// enough; the contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CollectArray implements Array with a non-atomic snapshot: a collect reads
// the cells one by one in index order, so it can observe states that never
// existed simultaneously. Section 6.2 notes the paper's results survive this
// weakening at the cost of more complex local computation; the experiment
// suite shows where naive uses of collect break.
type CollectArray[T any] struct {
	inner AtomicArray[T]
}

// NewCollectArray returns an n-cell array whose Snapshot is a collect.
func NewCollectArray[T any](n int, init T) *CollectArray[T] {
	a := &CollectArray[T]{}
	a.inner.Reset(n, init)
	return a
}

// Reset implements Array.
func (a *CollectArray[T]) Reset(n int, init T) { a.inner.Reset(n, init) }

// Len implements Array.
func (a *CollectArray[T]) Len() int { return a.inner.Len() }

// Read implements Array; one step.
func (a *CollectArray[T]) Read(p *sched.Proc, i int) T { return a.inner.Read(p, i) }

// Write implements Array; one step.
func (a *CollectArray[T]) Write(p *sched.Proc, i int, v T) { a.inner.Write(p, i, v) }

// Snapshot implements Array as a collect: n reads, n steps, no atomicity.
func (a *CollectArray[T]) Snapshot(p *sched.Proc) []T { return a.SnapshotInto(p, nil) }

// SnapshotInto implements Array as a collect into dst.
func (a *CollectArray[T]) SnapshotInto(p *sched.Proc, dst []T) []T {
	dst = resize(dst, a.inner.Len())
	for i := range dst {
		dst[i] = a.inner.Read(p, i)
	}
	return dst
}

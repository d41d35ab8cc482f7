package mem

import (
	"fmt"

	"github.com/drv-go/drv/internal/sched"
)

// SnapshotArray is the wait-free atomic snapshot of Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit [1], built from single-writer multi-reader
// read/write registers — the construction the paper invokes when it says
// snapshots "can be read/write wait-free implemented". Cell i may be written
// only by process i (the single-writer discipline all of the paper's
// algorithms follow: INCS[i], M[i], C[i]).
//
// Each cell stores (value, sequence number, embedded view). An update first
// performs a scan and embeds the result; a scan performs repeated double
// collects, returning a clean double collect directly, or borrowing the
// embedded view of a process observed to move twice — that view is a valid
// snapshot taken within the scan's interval, which is what makes the
// operation linearizable.
type SnapshotArray[T any] struct {
	cells []snapCell[T]
	// initView is the shared all-init view every cell embeds after a Reset;
	// cells replace it with freshly scanned views on their first update, so
	// sharing (and reusing it across Resets) is safe.
	initView []T
}

type snapCell[T any] struct {
	val  T
	seq  uint64
	view []T
}

// NewSnapshotArray returns an n-cell AADGMS snapshot object, each cell
// holding init.
func NewSnapshotArray[T any](n int, init T) *SnapshotArray[T] {
	a := &SnapshotArray[T]{}
	a.Reset(n, init)
	return a
}

// Reset implements Array: n cells holding init with zeroed sequence numbers,
// reusing the backing storage where capacity allows.
func (a *SnapshotArray[T]) Reset(n int, init T) {
	if cap(a.cells) >= n {
		a.cells = a.cells[:n]
	} else {
		a.cells = make([]snapCell[T], n)
	}
	if cap(a.initView) >= n {
		a.initView = a.initView[:n]
	} else {
		a.initView = make([]T, n)
	}
	for i := range a.initView {
		a.initView[i] = init
	}
	for i := range a.cells {
		a.cells[i] = snapCell[T]{val: init, view: a.initView}
	}
}

// Len implements Array.
func (a *SnapshotArray[T]) Len() int { return len(a.cells) }

// Read implements Array: a plain read of the cell's current value; one step.
func (a *SnapshotArray[T]) Read(p *sched.Proc, i int) T {
	p.Pause()
	return a.cells[i].val
}

// Write implements Array as an AADGMS update: an embedded scan followed by a
// single register write of (value, seq+1, view). Only process i may write
// cell i.
func (a *SnapshotArray[T]) Write(p *sched.Proc, i int, v T) {
	if p.ID != i {
		panic(fmt.Sprintf("mem: single-writer snapshot cell %d written by process %d", i, p.ID))
	}
	view := a.Snapshot(p)
	p.Pause() // the register write itself
	a.cells[i] = snapCell[T]{val: v, seq: a.cells[i].seq + 1, view: view}
}

// Snapshot implements Array as an AADGMS scan. Wait-free: at most n+1 double
// collects are needed, since each retry is caused by a distinct mover and a
// second move by the same process yields a borrowable view.
func (a *SnapshotArray[T]) Snapshot(p *sched.Proc) []T { return a.SnapshotInto(p, nil) }

// SnapshotInto implements Array as an AADGMS scan whose result lands in dst.
// The scan's own collects still allocate.
func (a *SnapshotArray[T]) SnapshotInto(p *sched.Proc, dst []T) []T {
	n := len(a.cells)
	moved := make(map[int]uint64, n) // process -> seq at first observed move
	first := a.collect(p)
	for {
		second := a.collect(p)
		clean := true
		for j := 0; j < n; j++ {
			if first[j].seq != second[j].seq {
				clean = false
				if prev, ok := moved[j]; ok && prev != second[j].seq {
					// j moved twice during this scan: its embedded view was
					// obtained inside our interval.
					dst = resize(dst, n)
					copy(dst, second[j].view)
					return dst
				}
				moved[j] = second[j].seq
			}
		}
		if clean {
			dst = resize(dst, n)
			for j := 0; j < n; j++ {
				dst[j] = second[j].val
			}
			return dst
		}
		first = second
	}
}

// collect reads all cells one by one, one step each.
func (a *SnapshotArray[T]) collect(p *sched.Proc) []snapCell[T] {
	out := make([]snapCell[T], len(a.cells))
	for i := range a.cells {
		p.Pause()
		out[i] = a.cells[i]
	}
	return out
}

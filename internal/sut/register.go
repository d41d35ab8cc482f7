package sut

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// AtomicRegister is the correct register implementation: a single atomic
// read/write cell. Every history it exhibits is linearizable with respect to
// the sequential register (each operation's step is its linearization point).
type AtomicRegister struct {
	cell mem.Register[int64]
}

// NewAtomicRegister returns a register initialized to 0.
func NewAtomicRegister() *AtomicRegister { return &AtomicRegister{} }

// Name implements Impl.
func (*AtomicRegister) Name() string { return "register/atomic" }

// Reset implements Impl.
func (r *AtomicRegister) Reset(int) { r.cell = mem.Register[int64]{} }

// Invoke implements Impl.
func (r *AtomicRegister) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpWrite:
		r.cell.Write(p, int64(arg.(trace.Int)))
		return trace.Unit{}
	case trace.OpRead:
		return trace.Int(r.cell.Read(p))
	default:
		panic(fmt.Sprintf("sut: register does not implement %q", op))
	}
}

// StaleRegister is a seeded-bug register: reads return a per-process cached
// value and refresh the cache from the shared cell only every Refresh-th
// read. Stale reads violate linearizability — a read can return a value
// overwritten before the read was even invoked — while every returned value
// was genuinely written at some point, so order-free (naive) monitors cannot
// see the bug. It is the deployable incarnation of the Lemma 5.1 adversary.
type StaleRegister struct {
	cell    mem.Register[int64]
	refresh int
	cache   []int64
	reads   []int
}

// NewStaleRegister returns a stale register for n processes whose caches
// refresh every refresh reads (refresh ≥ 1; 1 behaves atomically for reads
// that follow a refresh, larger values are staler).
func NewStaleRegister(n, refresh int) *StaleRegister {
	if refresh < 1 {
		refresh = 1
	}
	return &StaleRegister{
		refresh: refresh,
		cache:   make([]int64, n),
		reads:   make([]int, n),
	}
}

// Name implements Impl.
func (r *StaleRegister) Name() string { return fmt.Sprintf("register/stale-%d", r.refresh) }

// Reset implements Impl: the refresh period (a construction parameter)
// survives, the cell and the per-process caches do not.
func (r *StaleRegister) Reset(n int) {
	r.cell = mem.Register[int64]{}
	r.cache = resetInt64s(r.cache, n)
	r.reads = resetInts(r.reads, n)
}

// snapshots holds one reusable snapshot buffer per process, for operations
// that consume a snapshot before they return.
type snapshots [][]int

// take snapshots arr into process p's buffer and returns it; the slice is
// valid until p's next take.
func (s *snapshots) take(p *sched.Proc, arr mem.Array[int]) []int {
	for len(*s) <= p.ID {
		*s = append(*s, nil)
	}
	// The snapshot can yield, and another process's take can grow *s
	// meanwhile, so index *s only after it returns.
	snap := arr.SnapshotInto(p, (*s)[p.ID])
	(*s)[p.ID] = snap
	return snap
}

// resetInts returns s resized to n zeroed entries, reusing its backing array
// where capacity allows.
func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetInt64s is resetInts for int64 slices.
func resetInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Invoke implements Impl.
func (r *StaleRegister) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpWrite:
		v := int64(arg.(trace.Int))
		r.cell.Write(p, v)
		r.cache[p.ID] = v // writers see their own writes
		return trace.Unit{}
	case trace.OpRead:
		id := p.ID
		if r.reads[id]%r.refresh == 0 {
			r.cache[id] = r.cell.Read(p)
		} else {
			p.Pause() // a local step, so reads still take time
		}
		r.reads[id]++
		return trace.Int(r.cache[id])
	default:
		panic(fmt.Sprintf("sut: register does not implement %q", op))
	}
}

// SplitRegister is a seeded-bug register with per-process replicas and no
// synchronization at all: writes go to the writer's replica, reads read the
// reader's replica. Processes disagree forever about the register's value.
// Perhaps surprisingly, its histories are always sequentially consistent —
// serialize each process's initial-value reads first and the per-process
// blocks after — but they violate linearizability as soon as a process reads
// the initial value after another's write completed. It is therefore a
// second real-time-only bug, sharper than StaleRegister: no order-free
// monitor can ever catch it, by Theorem 5.2.
type SplitRegister struct {
	replicas []mem.Register[int64]
}

// NewSplitRegister returns a split register for n processes.
func NewSplitRegister(n int) *SplitRegister {
	return &SplitRegister{replicas: make([]mem.Register[int64], n)}
}

// Name implements Impl.
func (*SplitRegister) Name() string { return "register/split" }

// Reset implements Impl.
func (r *SplitRegister) Reset(n int) {
	if cap(r.replicas) < n {
		r.replicas = make([]mem.Register[int64], n)
		return
	}
	r.replicas = r.replicas[:n]
	for i := range r.replicas {
		r.replicas[i] = mem.Register[int64]{}
	}
}

// Invoke implements Impl.
func (r *SplitRegister) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpWrite:
		r.replicas[p.ID].Write(p, int64(arg.(trace.Int)))
		return trace.Unit{}
	case trace.OpRead:
		return trace.Int(r.replicas[p.ID].Read(p))
	default:
		panic(fmt.Sprintf("sut: register does not implement %q", op))
	}
}

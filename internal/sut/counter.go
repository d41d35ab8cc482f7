package sut

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// SnapshotCounter is the correct counter: per-process increment cells plus an
// atomic-snapshot read. inc writes the process's own cell (one step, atomic);
// read sums an atomic snapshot of all cells. Every history is linearizable
// with respect to the sequential counter, hence also in SEC_COUNT and
// WEC_COUNT.
type SnapshotCounter struct {
	cells mem.Array[int]
}

// NewSnapshotCounter returns a counter for n processes backed by the given
// array kind (atomic one-step snapshot or the AADGMS wait-free protocol —
// both yield linearizable counters; a collect array yields CollectCounter
// semantics instead, see below).
func NewSnapshotCounter(n int, kind CounterArray) *SnapshotCounter {
	return &SnapshotCounter{cells: newCounterArray(n, kind)}
}

// CounterArray selects the shared-array flavour backing a counter.
type CounterArray uint8

// Counter array kinds.
const (
	// CounterAtomic uses the model's one-step atomic snapshot array.
	CounterAtomic CounterArray = iota + 1
	// CounterAADGMS uses the wait-free read/write snapshot protocol.
	CounterAADGMS
	// CounterCollect uses a plain collect; reads are not atomic.
	CounterCollect
)

func newCounterArray(n int, kind CounterArray) mem.Array[int] {
	switch kind {
	case CounterAADGMS:
		return mem.NewSnapshotArray(n, 0)
	case CounterCollect:
		return mem.NewCollectArray(n, 0)
	default:
		return mem.NewAtomicArray(n, 0)
	}
}

// Name implements Impl.
func (c *SnapshotCounter) Name() string { return "counter/snapshot" }

// Reset implements Impl: the backing array keeps its kind (it resets in
// place), so an AADGMS counter stays AADGMS.
func (c *SnapshotCounter) Reset(n int) { c.cells.Reset(n, 0) }

// Invoke implements Impl.
func (c *SnapshotCounter) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpInc:
		own := c.cells.Read(p, p.ID)
		c.cells.Write(p, p.ID, own+1)
		return trace.Unit{}
	case trace.OpRead:
		snap := c.cells.Snapshot(p)
		total := 0
		for _, v := range snap {
			total += v
		}
		return trace.Int(total)
	default:
		panic(fmt.Sprintf("sut: counter does not implement %q", op))
	}
}

// CollectCounter reads by collecting the cells one at a time instead of
// snapshotting. Collect sums are not atomic — two overlapping reads can
// return values in either order of magnitude — so histories are generally
// not linearizable; but cells only grow, so every read returns at least the
// process's own preceding incs, reads are per-process monotone (a later
// collect starts after the earlier one finished), and at most the incs
// invoked before the read returns. Its histories therefore satisfy the
// SEC_COUNT safety clauses: the classic eventually consistent counter of [2].
type CollectCounter struct {
	cells *mem.CollectArray[int]
}

// NewCollectCounter returns a collect-read counter for n processes.
func NewCollectCounter(n int) *CollectCounter {
	return &CollectCounter{cells: mem.NewCollectArray(n, 0)}
}

// Name implements Impl.
func (c *CollectCounter) Name() string { return "counter/collect" }

// Reset implements Impl.
func (c *CollectCounter) Reset(n int) { c.cells.Reset(n, 0) }

// Invoke implements Impl.
func (c *CollectCounter) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpInc:
		own := c.cells.Read(p, p.ID)
		c.cells.Write(p, p.ID, own+1)
		return trace.Unit{}
	case trace.OpRead:
		vals := c.cells.Snapshot(p) // CollectArray's Snapshot is a collect
		total := 0
		for _, v := range vals {
			total += v
		}
		return trace.Int(total)
	default:
		panic(fmt.Sprintf("sut: counter does not implement %q", op))
	}
}

// InflatedCounter is a seeded-bug counter: once the reader has completed an
// increment, its reads add a phantom bias — speculative double-counting.
// Reads exceed the number of incs invoked so far, violating clause (4) of the
// strongly-eventual counter (over-reads), which Figure 9's view test flags as
// a safety violation the moment an over-read is shared. Figure 5 has no
// real-time information, so it can implicate the bug only through the
// clause-(3) convergence diagnostic (reads never settle on the true total) —
// a weaker, non-sticky signal: the deployable incarnation of the SEC/WEC
// separation.
type InflatedCounter struct {
	cells mem.Array[int]
	bias  int
}

// NewInflatedCounter returns a counter for n processes whose reads over-
// report by bias whenever the reader has performed at least one inc.
func NewInflatedCounter(n, bias int) *InflatedCounter {
	if bias < 1 {
		bias = 1
	}
	return &InflatedCounter{cells: mem.NewAtomicArray(n, 0), bias: bias}
}

// Name implements Impl.
func (c *InflatedCounter) Name() string { return fmt.Sprintf("counter/inflated-%d", c.bias) }

// Reset implements Impl: the bias (a construction parameter) survives.
func (c *InflatedCounter) Reset(n int) { c.cells.Reset(n, 0) }

// Invoke implements Impl.
func (c *InflatedCounter) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpInc:
		own := c.cells.Read(p, p.ID)
		c.cells.Write(p, p.ID, own+1)
		return trace.Unit{}
	case trace.OpRead:
		snap := c.cells.Snapshot(p)
		total := 0
		for _, v := range snap {
			total += v
		}
		if snap[p.ID] > 0 {
			total += c.bias // phantom speculative inflation
		}
		return trace.Int(total)
	default:
		panic(fmt.Sprintf("sut: counter does not implement %q", op))
	}
}

// StuckCounter is a seeded-bug counter that stops propagating increments:
// incs beyond the first per process are applied to a private shadow cell
// invisible to readers. Reads converge to the wrong total, violating the
// eventual clause (3) of both eventual counters — the liveness-style bug
// that only the convergence diagnostics catch.
type StuckCounter struct {
	cells  mem.Array[int]
	shadow []int
}

// NewStuckCounter returns a counter for n processes that publishes only the
// first increment of each process.
func NewStuckCounter(n int) *StuckCounter {
	return &StuckCounter{cells: mem.NewAtomicArray(n, 0), shadow: make([]int, n)}
}

// Name implements Impl.
func (c *StuckCounter) Name() string { return "counter/stuck" }

// Reset implements Impl.
func (c *StuckCounter) Reset(n int) {
	c.cells.Reset(n, 0)
	c.shadow = resetInts(c.shadow, n)
}

// Invoke implements Impl.
func (c *StuckCounter) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpInc:
		own := c.cells.Read(p, p.ID)
		if own == 0 {
			c.cells.Write(p, p.ID, 1)
		} else {
			p.Pause()
			c.shadow[p.ID]++ // lost to readers
		}
		return trace.Unit{}
	case trace.OpRead:
		snap := c.cells.Snapshot(p)
		total := 0
		for _, v := range snap {
			total += v
		}
		return trace.Int(total)
	default:
		panic(fmt.Sprintf("sut: counter does not implement %q", op))
	}
}

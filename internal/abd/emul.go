package abd

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// Counter emulates the paper's counter over per-process ABD cells — the
// message-passing analogue of sut.SnapshotCounter's cells-plus-collect walk:
// inc writes the process's own single-writer cell, read collects all n cells
// one emulated read at a time and sums. A collect over atomic monotone
// single-writer cells is linearizable as a counter: each cell read returns
// the cell's value at some instant inside the collect, so the sum lies
// between the true totals at the collect's invocation and response, and the
// total passes through every intermediate value one inc at a time.
type Counter struct {
	name    string
	n       int
	net     *msgnet.Net
	cells   []*Register
	local   []int64 // each process's own count; single-writer, no race
	dropInc bool    // DropIncStore was applied; newly grown cells inherit it
}

// NewCounter creates an emulated counter named name for n processes, with
// one ABD cell per process multiplexed over the network.
func NewCounter(name string, n int, net *msgnet.Net) *Counter {
	c := &Counter{name: name, net: net}
	c.Reset(n)
	return c
}

// Reset restores the counter to its freshly constructed state for n
// processes: existing cells reset in place (they stay bound to the same
// network), new cells are created when n grows, and the DropIncStore bug (a
// construction parameter) survives.
func (c *Counter) Reset(n int) {
	c.n = n
	if cap(c.cells) >= n {
		c.cells = c.cells[:n]
	}
	for i, cell := range c.cells {
		if cell == nil {
			c.cells = c.cells[:i]
			break
		}
		cell.Reset(n)
	}
	for i := len(c.cells); i < n; i++ {
		cell := NewRegister(fmt.Sprintf("%s.c%d", c.name, i), n, c.net, 0)
		if c.dropInc {
			cell.DropWriteStore()
		}
		c.cells = append(c.cells, cell)
	}
	if cap(c.local) >= n {
		c.local = c.local[:n]
	} else {
		c.local = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		c.local[i] = 0
	}
}

// DropIncStore seeds the lost-increment bug: every cell drops its write
// store phase, so an inc lands only in the incrementing process's own
// replica and a reader sees it only when its query quorums happen to include
// that replica — reads under-count and can even run backwards.
func (c *Counter) DropIncStore() *Counter {
	c.dropInc = true
	for _, cell := range c.cells {
		cell.DropWriteStore()
	}
	return c
}

// Cells exposes the underlying registers for server registration.
func (c *Counter) Cells() []*Register { return c.cells }

// Inc adds one to the caller's cell.
func (c *Counter) Inc(p *sched.Proc) {
	c.local[p.ID]++
	c.cells[p.ID].Write(p, c.local[p.ID])
}

// Read collects every cell and returns the sum.
func (c *Counter) Read(p *sched.Proc) int64 {
	var total int64
	for _, cell := range c.cells {
		total += cell.Read(p)
	}
	return total
}

// CounterImpl adapts an emulated counter to sut.Impl.
type CounterImpl struct {
	ctr  *Counter
	name string
}

var _ sut.Impl = (*CounterImpl)(nil)

// NewCounterImpl wraps an emulated counter.
func NewCounterImpl(ctr *Counter) *CounterImpl {
	return &CounterImpl{ctr: ctr, name: "counter/abd"}
}

// WithName overrides the reported implementation name (bug variants).
func (c *CounterImpl) WithName(name string) *CounterImpl {
	c.name = name
	return c
}

// Name implements sut.Impl.
func (c *CounterImpl) Name() string { return c.name }

// Reset implements sut.Impl by delegation to the wrapped emulation.
func (c *CounterImpl) Reset(n int) { c.ctr.Reset(n) }

// Invoke implements sut.Impl.
func (c *CounterImpl) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpInc:
		c.ctr.Inc(p)
		return trace.Unit{}
	case trace.OpRead:
		return trace.Int(c.ctr.Read(p))
	default:
		panic(fmt.Sprintf("abd: counter does not implement %q", op))
	}
}

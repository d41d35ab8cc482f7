package mem

import "github.com/drv-go/drv/internal/sched"

// CAS is an atomic compare-and-swap cell over int64, consensus number ∞. Its
// presence in the substrate backs the paper's remark that the impossibility
// results "hold under operations with arbitrarily high consensus number
// [30]" — the experiment suite runs monitors that use CAS-based consensus and
// shows they fail all the same, because the obstruction is real-time
// indistinguishability, not consensus power.
type CAS struct {
	v int64
}

// CompareAndSwap atomically replaces the value with next when it equals old,
// reporting success; one step.
func (c *CAS) CompareAndSwap(p *sched.Proc, old, next int64) bool {
	p.Pause()
	if c.v != old {
		return false
	}
	c.v = next
	return true
}

// Load returns the current value; one step.
func (c *CAS) Load(p *sched.Proc) int64 {
	p.Pause()
	return c.v
}

// Store unconditionally writes the value; one step.
func (c *CAS) Store(p *sched.Proc, v int64) {
	p.Pause()
	c.v = v
}

// consEmpty is the sentinel marking an undecided consensus cell; proposals
// must not use it.
const consEmpty = int64(-1) << 62

// Consensus is a single-shot wait-free consensus object built from CAS:
// every process proposes a value and all decide the first installed proposal.
// Available to monitor implementations to demonstrate that even unbounded
// consensus power does not help against the adversary A (Theorem 5.2 applies
// regardless of base-primitive power).
type Consensus struct {
	cell CAS
}

// NewConsensus returns an undecided consensus object.
func NewConsensus() *Consensus {
	c := &Consensus{}
	c.cell.v = consEmpty
	return c
}

// Propose submits v and returns the decided value; wait-free, two steps.
func (c *Consensus) Propose(p *sched.Proc, v int64) int64 {
	if v == consEmpty {
		panic("mem: consensus proposal collides with the empty sentinel")
	}
	c.cell.CompareAndSwap(p, consEmpty, v)
	return c.cell.Load(p)
}

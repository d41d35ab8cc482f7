// Package monitor implements the distributed monitors of the paper: the
// generic interaction loop of Figure 1, the stability transformations of
// Figures 2–4 (Section 4.2), the concrete deciders — Figure 5's weak decider
// for WEC_COUNT, Figure 8's predictive linearizability monitor V_O, Figure
// 9's predictive-weak decider for SEC_COUNT — the three-valued variants of
// Section 7, and baseline monitors used by the impossibility experiments.
//
// A monitor is a factory producing one Logic per process; the logics of one
// execution share wait-free read/write state (package mem) and are driven by
// the Runner through the Figure-1 loop against a Service (package adversary).
package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
)

// Verdict is a value a process reports in Line 06; re-homed in the exported
// exp/trace package and aliased here.
type Verdict = trace.Verdict

const (
	// Yes reports the behaviour is (still) considered correct.
	Yes = trace.Yes
	// No reports a violation.
	No = trace.No
	// Maybe reports insufficient information (three-valued monitors, §7).
	Maybe = trace.Maybe
)

// Logic is the per-process monitor body: the blocks of Lines 02, 05 and 06
// of Figure 1. All shared-memory operations must be wait-free, which the mem
// primitives guarantee by construction.
type Logic interface {
	// PreSend is the Line 02 block: communicate before sending invocation v.
	PreSend(p *sched.Proc, inv trace.Symbol)
	// PostRecv is the Line 05 block: communicate after receiving a response.
	PostRecv(p *sched.Proc, resp trace.Response)
	// Decide is the Line 06 block: report one value.
	Decide(p *sched.Proc) Verdict
}

// Monitor builds the shared state and per-process logics for one execution.
type Monitor interface {
	// Name identifies the monitor in experiment reports.
	Name() string
	// New returns n logics sharing freshly built state. Their buffers come
	// from the running session's scratch, which Session.Run attaches after
	// New, before the first step.
	New(n int) []Logic
}

// monitorFunc adapts a name and factory function to the Monitor interface.
type monitorFunc struct {
	name string
	make func(n int) []Logic
}

func (m monitorFunc) Name() string      { return m.name }
func (m monitorFunc) New(n int) []Logic { return m.make(n) }

// NewMonitor wraps a factory function as a Monitor.
func NewMonitor(name string, make func(n int) []Logic) Monitor {
	return monitorFunc{name: name, make: make}
}

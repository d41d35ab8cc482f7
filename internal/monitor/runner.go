package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/sched"
)

// Config describes one monitored execution.
type Config struct {
	// N is the number of monitor processes.
	N int
	// Monitor under test.
	Monitor Monitor
	// NewService builds the service (adversary) on the runtime and returns
	// it along with the auxiliary actor IDs it registered (cursor first).
	NewService func(rt *sched.Runtime) (adversary.Service, []int)
	// Policy builds the scheduling policy, given the service's auxiliary
	// actor IDs. Nil defaults to a cursor-prioritizing round-robin.
	Policy func(aux []int) sched.Policy
	// MaxSteps bounds the execution; the run also ends when the service's
	// behaviour script is exhausted and all processes are parked or exited.
	MaxSteps int
	// Crash, when non-nil, maps a step count to process IDs to crash at that
	// step. Checked between scheduler steps.
	Crash map[int][]int
	// Drive, when non-nil, replaces the default stepping loop: it receives
	// the runtime after processes are spawned and must call rt.Step itself.
	// Proof-construction drivers (the indistinguishability experiments of
	// Section 5) use it to place every step explicitly. MaxSteps and Crash
	// are ignored when Drive is set.
	Drive func(rt *sched.Runtime)
	// Report, when non-nil, is called with each verdict as its process
	// appends it to the Result: the process, the verdict's index in that
	// process's stream, the verdict, and the step and exhibited-history
	// length recorded with it. It runs inside the reporting process's step,
	// so a Report that blocks holds the whole run.
	Report func(proc, index int, v Verdict, step, hist int)
}

// Result is the outcome of a monitored execution; re-homed in the exported
// exp/trace package (with its accessors and sketch reconstruction) and
// aliased here.
type Result = trace.Result

// Run executes the monitor against the service and returns the result. It
// dedicates a one-shot Session (and runtime) to the execution; workloads
// running many executions should hold a Session and reuse it instead.
func Run(cfg Config) *Result {
	s := NewSession()
	defer s.Close()
	return s.Run(cfg)
}

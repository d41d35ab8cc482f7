package sut

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// monitorImpl wires a SUT implementation into the full predictive stack —
// Aτ wrapping the service, the Figure 8 monitor V_O on top — and returns
// the total NO count across seeds.
func monitorImpl(t *testing.T, obj trace.Object, mk func() Impl, seeds []int64, opsPerProc int) int {
	t.Helper()
	const procs = 3
	total := 0
	for _, seed := range seeds {
		svc := NewService(procs, mk(), NewRandomWorkload(obj, procs, opsPerProc, 0.5, seed))
		tau := adversary.NewTimed(procs, svc, adversary.ArrayAtomic)
		res := monitor.Run(monitor.Config{
			N:       procs,
			Monitor: monitor.NewLin(obj, tau, adversary.ArrayAtomic),
			NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
				return tau, nil
			},
			Policy: func([]int) sched.Policy {
				return sched.Random(seed)
			},
			MaxSteps: 80_000,
		})
		total += res.TotalNO()
	}
	return total
}

// TestFig8OnQueues runs V_O end to end on the queue — the object for which
// [17] proved no sound-and-complete asynchronous monitor exists, making the
// predictive regime the only option. The correct lock queue draws no NOs;
// the wrong-ended queue is caught.
func TestFig8OnQueues(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if nos := monitorImpl(t, trace.Queue(), func() Impl { return NewLockQueue() }, seeds, 5); nos != 0 {
		t.Errorf("correct queue drew %d NOs from V_O", nos)
	}
	if nos := monitorImpl(t, trace.Queue(), func() Impl { return NewLIFOQueue() }, seeds, 5); nos == 0 {
		t.Error("LIFO queue bug went unnoticed by V_O")
	}
}

// TestFig8OnStacks is the stack counterpart; the LIFO queue doubles as a
// correct stack when monitored against the stack specification with stack
// operation names — instead we check the lock stack directly.
func TestFig8OnStacks(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if nos := monitorImpl(t, trace.Stack(), func() Impl { return NewLockStack() }, seeds, 5); nos != 0 {
		t.Errorf("correct stack drew %d NOs from V_O", nos)
	}
}

// TestFig8OnLedgers exercises V_O on the ledger implementations.
func TestFig8OnLedgers(t *testing.T) {
	seeds := []int64{1, 2}
	if nos := monitorImpl(t, trace.Ledger(), func() Impl { return NewLockLedger() }, seeds, 4); nos != 0 {
		t.Errorf("correct ledger drew %d NOs from V_O", nos)
	}
	if nos := monitorImpl(t, trace.Ledger(), func() Impl { return NewForkedLedger(3) }, seeds, 4); nos == 0 {
		t.Error("forked ledger went unnoticed by V_O")
	}
}

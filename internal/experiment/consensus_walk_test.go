package experiment

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// TestWalkAgainstConsensusMonitor runs the Theorem 5.2 chain against the
// consensus-order monitor: the characterization claims the impossibility for
// ANY primitive power, so the walk's indistinguishability facts must hold
// for a monitor deciding global operation orders through CAS-based
// consensus just as for the read/write baseline.
func TestWalkAgainstConsensusMonitor(t *testing.T) {
	alpha := core.AppendixAWitness(3)
	wit := core.FindRTOWitness(lang.LinLed().Judge, alpha, 3)
	if wit == nil {
		t.Fatal("no RTO witness on the Appendix A word")
	}
	m := monitor.NewConsensusOrder(trace.Ledger(), adversary.ArrayAtomic)
	walk, err := RunWalk(m, 3, wit.Alpha, wit.Shuffled)
	if err != nil {
		t.Fatalf("walk failed against the consensus monitor: %v", err)
	}
	for i, step := range walk.Steps {
		if !step.InputsEqual || !step.FEquivE2 {
			t.Errorf("step %d: inputs-equal=%v F≡E″=%v", i, step.InputsEqual, step.FEquivE2)
		}
	}
}

// TestWalkChainConnectsEndpoints verifies the chain's endpoints: the first
// step starts at alpha, the last ends at the violating shuffle, and every
// intermediate To equals the next From — the ordering that lets the paper
// conclude x(E0) ∈ L ⟺ x(E2x) ∈ L for decidable languages.
func TestWalkChainConnectsEndpoints(t *testing.T) {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	alpha := b.Word()
	b2 := trace.NewB()
	b2.Op(1, trace.OpRead, nil, trace.Int(1))
	b2.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	target := b2.Word()

	walk, err := RunWalk(monitor.Constant(monitor.Yes), 2, alpha, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(walk.Steps) == 0 {
		t.Fatal("no steps")
	}
	if !walk.Steps[0].From.Equal(alpha) {
		t.Error("chain does not start at alpha")
	}
	if !walk.Steps[len(walk.Steps)-1].To.Equal(target) {
		t.Error("chain does not end at the target shuffle")
	}
	for i := 1; i < len(walk.Steps); i++ {
		if !walk.Steps[i].From.Equal(walk.Steps[i-1].To) {
			t.Errorf("chain broken between steps %d and %d", i-1, i)
		}
	}
}

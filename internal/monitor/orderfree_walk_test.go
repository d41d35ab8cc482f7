package monitor_test

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// TestOrderFreeLogicsMatchReferenceOnLemmaWalks drives the shadowed
// order-free monitors through the impossibility constructions Table 1 runs
// them in — the Lemma 5.1 swap, the Lemma 6.5 alternation and the Theorem
// 5.2 shuffle walks over the Appendix A witness — and requires every round's
// verdict to equal the reference composition's. The constructions' own
// verdict checks must still pass.
func TestOrderFreeLogicsMatchReferenceOnLemmaWalks(t *testing.T) {
	var bad []string
	fail := func(msg string) { bad = append(bad, msg) }
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
		if len(bad) > 0 {
			t.Fatalf("%s: %d mismatches with the reference, first: %s", what, len(bad), bad[0])
		}
	}
	kinds := []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayAADGMS, adversary.ArrayCollect}
	for _, kind := range kinds {
		check("Lemma 5.1 swap", experiment.Lemma51{Rounds: 6}.Verify(
			monitor.NewShadowNaiveOrder(trace.Register(), kind, fail)))
		check("Lemma 6.5 alternation", experiment.Lemma65{N: 2, Stages: 3}.Verify(
			func(*adversary.Timed) monitor.Monitor { return monitor.NewShadowECLed(kind, fail) }, kind))
	}

	const procs = 3
	alpha := core.AppendixAWitness(procs)
	for _, tc := range []struct {
		l lang.Lang
		m monitor.Monitor
	}{
		{lang.SCLed(), monitor.NewShadowNaiveOrder(trace.Ledger(), adversary.ArrayAtomic, fail)},
		{lang.ECLed(), monitor.NewShadowECLed(adversary.ArrayAtomic, fail)},
	} {
		wit := core.FindRTOWitness(tc.l.Judge, alpha, procs)
		if wit == nil {
			t.Fatalf("no RTO witness for %s on the Appendix A word", tc.l.Name)
		}
		_, err := experiment.RunWalk(tc.m, procs, wit.Alpha, wit.Shuffled)
		check(tc.l.Name+" Theorem 5.2 walk", err)
	}
}

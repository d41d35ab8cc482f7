package explore

// The explorer's reason to exist is catching monitors that are wrong in ways
// the curated Table 1 runs never notice. These tests inject synthetically
// broken monitors and assert the differential checks catch them and the
// minimizer shrinks the finding to a tiny reproducer.

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// yesMan wraps a monitor and discards its verdicts, always reporting YES —
// the canonical unsound decider. The inner logic still runs, so the
// execution shape (shared-memory steps, announcements) stays realistic.
type yesMan struct{ inner monitor.Monitor }

func (m yesMan) Name() string { return "broken-yes(" + m.inner.Name() + ")" }

func (m yesMan) New(n int) []monitor.Logic {
	inners := m.inner.New(n)
	out := make([]monitor.Logic, n)
	for i := range out {
		out[i] = yesLogic{inner: inners[i]}
	}
	return out
}

type yesLogic struct{ inner monitor.Logic }

func (l yesLogic) Unwrap() monitor.Logic                    { return l.inner }
func (l yesLogic) PreSend(p *sched.Proc, inv trace.Symbol)  { l.inner.PreSend(p, inv) }
func (l yesLogic) PostRecv(p *sched.Proc, r trace.Response) { l.inner.PostRecv(p, r) }
func (l yesLogic) Decide(p *sched.Proc) monitor.Verdict {
	l.inner.Decide(p)
	return monitor.Yes
}

// flipFlop wraps a monitor and reports NO on every other round regardless of
// the input — unsound in the other direction (false alarms on in-language
// words).
type flipFlop struct{ inner monitor.Monitor }

func (m flipFlop) Name() string { return "broken-flipflop(" + m.inner.Name() + ")" }

func (m flipFlop) New(n int) []monitor.Logic {
	inners := m.inner.New(n)
	out := make([]monitor.Logic, n)
	for i := range out {
		out[i] = &flipFlopLogic{inner: inners[i]}
	}
	return out
}

type flipFlopLogic struct {
	inner monitor.Logic
	round int
}

func (l *flipFlopLogic) Unwrap() monitor.Logic                    { return l.inner }
func (l *flipFlopLogic) PreSend(p *sched.Proc, inv trace.Symbol)  { l.inner.PreSend(p, inv) }
func (l *flipFlopLogic) PostRecv(p *sched.Proc, r trace.Response) { l.inner.PostRecv(p, r) }
func (l *flipFlopLogic) Decide(p *sched.Proc) monitor.Verdict {
	l.inner.Decide(p)
	l.round++
	if l.round%2 == 0 {
		return monitor.No
	}
	return monitor.Yes
}

func wrapYes(m monitor.Monitor) monitor.Monitor      { return yesMan{inner: m} }
func wrapFlipFlop(m monitor.Monitor) monitor.Monitor { return flipFlop{inner: m} }

func TestBrokenYesMonitorCaughtAndShrunk(t *testing.T) {
	// Acceptance: a verdict-suppressing monitor is caught, and the shrunk
	// reproducer is at most 20 scheduler steps.
	r := Runner{Wrap: wrapYes}
	s := Spec{Lang: "WEC_COUNT", Source: "own-inc-violation", N: 3, Seed: 11, Policy: PolCursor, Steps: 3000}
	out, err := r.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Divergences) == 0 {
		t.Fatal("yes-man monitor not caught")
	}
	found := false
	for _, d := range out.Divergences {
		if d.Check == CheckOwnSafety {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an %s divergence, got %v", CheckOwnSafety, out.Divergences)
	}

	shrunk, still := ShrinkSpec(s, r, 0)
	if len(still) == 0 {
		t.Fatal("shrunk spec no longer diverges")
	}
	if shrunk.Steps > 20 {
		t.Errorf("shrunk reproducer needs %d steps, want ≤ 20 (%s)", shrunk.Steps, shrunk)
	}
	if shrunk.N > s.N || len(shrunk.Crashes) > 0 {
		t.Errorf("shrink did not minimize the scenario: %s", shrunk)
	}
	// The reproducer must replay deterministically.
	if _, err := ParseSpec(shrunk.String()); err != nil {
		t.Errorf("shrunk spec does not re-parse: %v", err)
	}
}

func TestShrinkBudgetExhaustionReturnsBestSoFar(t *testing.T) {
	// A shrink that runs out of candidate executions mid-search must return
	// the smallest spec that was CONFIRMED divergent, with its divergences —
	// never a half-explored candidate it could not re-execute.
	r := Runner{Wrap: wrapYes}
	s := Spec{Lang: "WEC_COUNT", Source: "own-inc-violation", N: 3, Seed: 11, Policy: PolCursor, Steps: 3000}

	// Budget 1: only the initial confirmation runs, so the best-so-far IS
	// the original spec.
	best, still := ShrinkSpec(s, r, 1)
	if len(still) == 0 {
		t.Fatal("budget-1 shrink lost the divergence")
	}
	if best.String() != s.String() {
		t.Errorf("budget-1 shrink returned %s, want the original %s", best, s)
	}

	// Tight budgets must always return a confirmed reproducer no larger than
	// the original, monotonically improving (never regressing) as the budget
	// grows enough to reach further axes.
	prevSteps := s.Steps + 1
	for _, budget := range []int{2, 5, 20, 60} {
		best, still := ShrinkSpec(s, r, budget)
		if len(still) == 0 {
			t.Fatalf("budget-%d shrink lost the divergence", budget)
		}
		if best.N > s.N || best.Steps > s.Steps || len(best.Crashes) > len(s.Crashes) {
			t.Errorf("budget-%d shrink returned a larger spec: %s", budget, best)
		}
		out, err := r.Execute(best)
		if err != nil {
			t.Fatalf("budget-%d reproducer does not execute: %v", budget, err)
		}
		if len(out.Divergences) == 0 {
			t.Errorf("budget-%d reproducer %s does not diverge", budget, best)
		}
		if best.Steps > prevSteps {
			t.Errorf("budget-%d reproducer (%d steps) is worse than the smaller budget's (%d)", budget, best.Steps, prevSteps)
		}
		prevSteps = best.Steps
	}
}

func TestBrokenFlipFlopCaught(t *testing.T) {
	// False alarms on an in-language source violate the WD tail predicate.
	r := Runner{Wrap: wrapFlipFlop}
	s := Spec{Lang: "WEC_COUNT", Source: "exact", N: 3, Seed: 4, Policy: PolBiased, Bias: 0.5, Steps: 4000}
	out, err := r.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range out.Divergences {
		if d.Check == CheckClass {
			found = true
		}
	}
	if !found {
		t.Errorf("flip-flop monitor not caught by the class oracle: %v", out.Divergences)
	}
}

func TestExploreEndToEndCatchesBrokenMonitor(t *testing.T) {
	// Whole-pipeline: a sweep over the broken monitor must report failures
	// with shrunk reproducers.
	rep, err := Explore(Options{
		Master: 1, Scenarios: 40, Workers: 4,
		Gen:    GenConfig{Langs: []string{"WEC_COUNT"}, MaxCrashes: 1},
		Shrink: true,
		Wrap:   wrapYes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("sweep over a broken monitor reported no failures")
	}
	shrunkSeen := false
	for _, f := range rep.Failures {
		if f.Shrunk != "" {
			shrunkSeen = true
			if f.ShrunkSteps <= 0 || len(f.ShrunkDivergences) == 0 {
				t.Errorf("failure %s has an inconsistent shrink result", f.Spec)
			}
			if _, err := ParseSpec(f.Shrunk); err != nil {
				t.Errorf("shrunk spec %q does not parse: %v", f.Shrunk, err)
			}
		}
	}
	if !shrunkSeen {
		t.Error("no failure carried a shrunk reproducer")
	}
}

func TestBrokenYesMonitorCaughtOnCutLedger(t *testing.T) {
	// The covered-sketch oracle still bites: on the cut ledger spec run long
	// enough for the shipped monitor to report NO, a monitor that never does
	// diverges on the class check.
	s, err := ParseSpec(fmt.Sprintf(cutLedgerSpec, 1000))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Runner{Wrap: wrapYes}.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range out.Divergences {
		if d.Check == CheckClass {
			found = true
		}
	}
	if !found {
		t.Errorf("never-NO monitor not caught by the class oracle: %v", out.Divergences)
	}
}

package explore

// A sweep queues its shrinks in scenario-index order and runs them on the
// worker pool after the last round, each starting from the findings the
// sweep's own execution of the scenario produced. These tests pin that the
// pooled shrinks are the exported shrinks minus their first execution: the
// same reproducers at every worker count, one execution fewer each.

import (
	"slices"
	"sync/atomic"
	"testing"

	"github.com/drv-go/drv/internal/monitor"
)

// pooledShrinkSweeps returns the sweeps the pooled-shrink tests run: an
// object master whose bugs span many implementations, and a message master
// under a never-NO monitor, whose divergences add Failure shrinks to its bug
// shrinks. The small shrink budget keeps the re-shrinks cheap without
// changing what is compared.
func pooledShrinkSweeps() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"obj", Options{Master: 1, Scenarios: 60, Gen: GenConfig{Families: []string{FamObj}, MaxCrashes: 2}, Shrink: true, ShrinkBudget: 40}},
		{"msg", Options{Master: 1, Scenarios: 80, Gen: GenConfig{Families: []string{FamMsg}, MaxCrashes: 2}, Shrink: true, ShrinkBudget: 40, Wrap: wrapYes}},
	}
}

// shrinkCount is the number of shrinks a report's sweep ran: one per Bug and
// one per Failure.
func shrinkCount(rep *Report) int { return len(rep.Bugs) + len(rep.Failures) }

func TestPooledShrinksMatchAcrossWorkers(t *testing.T) {
	for _, sw := range pooledShrinkSweeps() {
		t.Run(sw.name, func(t *testing.T) {
			var renders []string
			for _, workers := range []int{1, 2, 4} {
				opts := sw.opts
				opts.Workers = workers
				rep, err := Explore(opts)
				if err != nil {
					t.Fatal(err)
				}
				shrunk := 0
				for _, b := range rep.Bugs {
					if b.Shrunk != "" {
						shrunk++
					}
				}
				for _, f := range rep.Failures {
					if f.Shrunk != "" {
						shrunk++
					}
				}
				if shrunk < 3 {
					t.Fatalf("workers=%d: %d shrunk entries, want at least 3", workers, shrunk)
				}
				t.Logf("workers=%d: %d bugs, %d failures, %d shrunk", workers, len(rep.Bugs), len(rep.Failures), shrunk)
				renders = append(renders, mustJSON(t, rep))
			}
			for i, w := range []int{2, 4} {
				if renders[i+1] != renders[0] {
					t.Errorf("workers=1 and workers=%d folded different reports:\n%s\n%s", w, renders[0], renders[i+1])
				}
			}
		})
	}
}

func TestShrinkFromKnownFindingsMatchesExported(t *testing.T) {
	for _, sw := range pooledShrinkSweeps() {
		t.Run(sw.name, func(t *testing.T) {
			opts := sw.opts
			opts.Workers = 2
			rep, err := Explore(opts)
			if err != nil {
				t.Fatal(err)
			}
			sess := monitor.NewSession()
			defer sess.Close()
			r := Runner{Wrap: opts.Wrap, Session: sess}.Pooled()
			same := func(spec string, found []Divergence, pick func(*Outcome) []Divergence, exported func(Spec, Runner, int) (Spec, []Divergence)) {
				t.Helper()
				s, err := ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStill := shrinkWhere(s, found, r, opts.ShrinkBudget, pick)
				want, wantStill := exported(s, r, opts.ShrinkBudget)
				if got.String() != want.String() || mustJSON(t, gotStill) != mustJSON(t, wantStill) {
					t.Errorf("%s: from known findings %s %v, exported %s %v", spec, got, gotStill, want, wantStill)
				}
			}
			for _, b := range rep.Bugs {
				same(b.Spec, b.Failures, oracleFailures, ShrinkBugSpec)
			}
			for _, f := range rep.Failures {
				same(f.Spec, firstRun(f.Divergences), divergences, ShrinkSpec)
			}
		})
	}
}

func TestPooledShrinkSkipsTheKnownExecution(t *testing.T) {
	for _, sw := range pooledShrinkSweeps() {
		t.Run(sw.name, func(t *testing.T) {
			// counting wraps the sweep's monitor and counts the executions:
			// every executed scenario wraps its monitor exactly once.
			var execs atomic.Int64
			counting := func(m monitor.Monitor) monitor.Monitor {
				execs.Add(1)
				if sw.opts.Wrap != nil {
					return sw.opts.Wrap(m)
				}
				return m
			}
			opts := sw.opts
			opts.Workers = 2
			opts.Wrap = counting
			rep, err := Explore(opts)
			if err != nil {
				t.Fatal(err)
			}
			sweep := execs.Load()
			if shrinkCount(rep) < 3 {
				t.Fatalf("%d shrinks, want at least 3", shrinkCount(rep))
			}

			// The exported forms execute each spec once more before shrinking.
			execs.Store(0)
			sess := monitor.NewSession()
			defer sess.Close()
			r := Runner{Wrap: counting, Session: sess}.Pooled()
			for _, b := range rep.Bugs {
				s, _ := ParseSpec(b.Spec)
				ShrinkBugSpec(s, r, opts.ShrinkBudget)
			}
			for _, f := range rep.Failures {
				s, _ := ParseSpec(f.Spec)
				ShrinkSpec(s, r, opts.ShrinkBudget)
			}
			exported := execs.Load()
			if want := int64(opts.Scenarios) + exported - int64(shrinkCount(rep)); sweep != want {
				t.Errorf("sweep ran %d executions, want %d scenarios + %d exported shrink executions - %d shrinks = %d",
					sweep, opts.Scenarios, exported, shrinkCount(rep), want)
			}

			// That first execution is the whole of a budget of 1, as it was
			// before the sweep stopped repeating it: the exported forms run
			// the spec once and return it.
			execs.Store(0)
			for _, b := range rep.Bugs {
				s, _ := ParseSpec(b.Spec)
				if got, _ := ShrinkBugSpec(s, r, 1); got.String() != b.Spec {
					t.Errorf("budget-1 shrink of %s returned %s", b.Spec, got)
				}
			}
			for _, f := range rep.Failures {
				s, _ := ParseSpec(f.Spec)
				if got, _ := ShrinkSpec(s, r, 1); got.String() != f.Spec {
					t.Errorf("budget-1 shrink of %s returned %s", f.Spec, got)
				}
			}
			if got := execs.Load(); got != int64(shrinkCount(rep)) {
				t.Errorf("%d budget-1 shrinks ran %d executions, want one each", shrinkCount(rep), got)
			}
		})
	}
}

// ShrinkSpec minimizes the divergent spec along up to five axes, in order:
// fewer crashes, fewer dropped messages (message-passing family), fewer
// processes, fewer workload operations (object and message-passing families),
// fewer scheduler steps. It returns the smallest divergent spec found
// together with its divergences; when the original spec, executed afresh, no
// longer diverges (a nondeterministic monitor — in itself a finding the
// replay check reports), the returned divergence list is empty.
func ShrinkSpec(s Spec, r Runner, budget int) (Spec, []Divergence) {
	return shrinkFresh(s, r, budget, divergences)
}

// TestClassOnlyRunKeepsOracleFailures pins what a bug shrink's runner skips:
// on object and message-passing scenarios, a class-only execution reports
// the same OracleFailures as a full one, and runs neither the brute-force
// differential nor the monitor check.
func TestClassOnlyRunKeepsOracleFailures(t *testing.T) {
	sess := monitor.NewSession()
	defer sess.Close()
	full := Runner{Session: sess}.Pooled()
	classOnly := full
	classOnly.classOnly = true
	bugs := 0
	for _, cfg := range []GenConfig{objGen(), msgGen()} {
		for i := 0; i < 60; i++ {
			s := NewSpec(5, i, cfg)
			want, err := full.Execute(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := classOnly.Execute(s)
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, got.OracleFailures) != mustJSON(t, want.OracleFailures) {
				t.Fatalf("%s: class-only run found %v, full run %v", s, got.OracleFailures, want.OracleFailures)
			}
			if slices.Contains(got.Ran, CheckBrute) || slices.Contains(got.Ran, CheckMonitorLin) {
				t.Fatalf("%s: class-only run ran %v", s, got.Ran)
			}
			if len(want.OracleFailures) > 0 {
				bugs++
			}
		}
	}
	if bugs == 0 {
		t.Fatal("no scenario exposed a bug; the comparison is vacuous")
	}
}

package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// cellErrsEqual compares two row slices cell by cell, including error text.
func cellErrsEqual(t *testing.T, a, b []Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i].Cells {
			ca, cb := a[i].Cells[j], b[i].Cells[j]
			if ca.Lang != cb.Lang || ca.Class != cb.Class || ca.Expected != cb.Expected ||
				ca.Method != cb.Method || ca.Evidence != cb.Evidence {
				t.Errorf("%s × %s: metadata differs", ca.Lang, ca.Class)
			}
			ea, eb := "", ""
			if ca.Err != nil {
				ea = ca.Err.Error()
			}
			if cb.Err != nil {
				eb = cb.Err.Error()
			}
			if ea != eb {
				t.Errorf("%s × %s: errors differ: %q vs %q", ca.Lang, ca.Class, ea, eb)
			}
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	p := ShortParams()
	seq, err := Run(context.Background(), p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := Run(context.Background(), p, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if Render(seq) != Render(par) {
			t.Errorf("workers=%d: rendered tables differ:\n%s\nvs\n%s", workers, Render(seq), Render(par))
		}
		cellErrsEqual(t, seq, par)
	}
}

func TestRunProgressCallback(t *testing.T) {
	var (
		mu      sync.Mutex
		events  []CellUpdate
		maxDone int
	)
	rows, err := Run(context.Background(), ShortParams(), Options{
		Workers: 4,
		OnCell: func(u CellUpdate) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, u)
			if u.Done != maxDone+1 {
				t.Errorf("Done jumped from %d to %d", maxDone, u.Done)
			}
			maxDone = u.Done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(rows)
	if len(events) != want {
		t.Fatalf("got %d progress events, want %d", len(events), want)
	}
	seen := make(map[cellKey]bool)
	for _, u := range events {
		if u.Total != want {
			t.Errorf("event Total = %d, want %d", u.Total, want)
		}
		k := cellKey{u.Row, u.Col}
		if seen[k] {
			t.Errorf("cell %v completed twice", k)
		}
		seen[k] = true
		got := rows[u.Row].Cells[u.Col]
		if got.Lang != u.Cell.Lang || got.Class != u.Cell.Class {
			t.Errorf("event cell %v does not match row %v", u.Cell, got)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Run(ctx, ShortParams(), Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Err == nil {
				t.Errorf("%s × %s: expected a skip error on a cancelled run", c.Lang, c.Class)
			} else if !errors.Is(c.Err, context.Canceled) {
				t.Errorf("%s × %s: error %v does not wrap context.Canceled", c.Lang, c.Class, c.Err)
			}
		}
	}
}

func TestRunFailFast(t *testing.T) {
	// ShortParams' step bounds are too small for seed 2's PWD proxies, so
	// sweeping both seeds makes at least one cell genuinely fail; fail-fast
	// must then cancel outstanding units and surface the cause.
	p := ShortParams()
	p.Seeds = []int64{1, 2}
	rows, err := Run(context.Background(), p, Options{Workers: 4, FailFast: true})
	if err == nil {
		t.Fatal("expected a fail-fast error")
	}
	failed := 0
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Err != nil {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("fail-fast run reports no failed cells")
	}
}

// TestCellDeterministicAcrossGoroutines runs every unit of one cell on many
// goroutines concurrently and asserts each concurrent evaluation folds to
// the identical Cell result — the independence property the worker pool
// relies on (fresh runtime, adversary and monitor state per unit; seeded
// policies).
func TestCellDeterministicAcrossGoroutines(t *testing.T) {
	p := ShortParams()
	pl := buildPlan(p, nil)
	// LIN_REG × PSD: a timed sweep cell with one unit per (seed, source).
	target := cellKey{0, 2}
	var units []unit
	for _, u := range pl.units {
		for _, k := range u.targets {
			if k == target {
				units = append(units, u)
			}
		}
	}
	if len(units) == 0 {
		t.Fatal("no units target LIN_REG × PSD")
	}

	const goroutines = 8
	results := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Fold exactly as the engine does: lowest plan order wins. Each
			// goroutine owns one pooled session, as each engine worker does.
			sess := monitor.NewSession()
			defer sess.Close()
			var first error
			for _, u := range units {
				errs := u.run(sess)
				for i, k := range u.targets {
					if k == target && errs[i] != nil && first == nil {
						first = errs[i]
					}
				}
			}
			results[g] = first
		}()
	}
	wg.Wait()
	for g, err := range results {
		if (err == nil) != (results[0] == nil) {
			t.Fatalf("goroutine %d folded %v, goroutine 0 folded %v", g, err, results[0])
		}
		if err != nil && err.Error() != results[0].Error() {
			t.Fatalf("goroutine %d folded %q, goroutine 0 folded %q", g, err, results[0])
		}
	}
}

// TestConcurrentRunsIndependent runs several whole-table engines at once;
// every one must produce the same rendered table. Under -race this doubles
// as the shared-state audit for sched.Runtime and monitor.Run.
func TestConcurrentRunsIndependent(t *testing.T) {
	p := ShortParams()
	want := Render(Table1(p))
	const runs = 4
	got := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := Run(context.Background(), p, Options{Workers: 2})
			if err != nil {
				got[i] = fmt.Sprintf("error: %v", err)
				return
			}
			got[i] = Render(rows)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent run %d rendered:\n%s\nwant:\n%s", i, g, want)
		}
	}
}

func TestPlanCoversAllCells(t *testing.T) {
	pl := buildPlan(ShortParams(), nil)
	if len(pl.rows) != 7 {
		t.Fatalf("plan has %d rows, want 7", len(pl.rows))
	}
	covered := make(map[cellKey]int)
	for _, u := range pl.units {
		if len(u.targets) == 0 {
			t.Errorf("unit %q has no targets", u.name)
		}
		for _, k := range u.targets {
			covered[k]++
		}
	}
	for r := range pl.rows {
		for c := 0; c < 4; c++ {
			if covered[cellKey{r, c}] == 0 {
				t.Errorf("cell %s × %s has no units", pl.rows[r].Lang, pl.rows[r].Cells[c].Class)
			}
		}
	}
	if len(covered) != 4*len(pl.rows) {
		t.Errorf("units cover %d cells, want %d", len(covered), 4*len(pl.rows))
	}
}

// planListing renders a plan's units as "name -> targets" lines in plan
// order: the order that decides which failure a cell reports.
func planListing(pl *plan) string {
	var sb strings.Builder
	for _, u := range pl.units {
		fmt.Fprintf(&sb, "%s ->", u.name)
		for _, k := range u.targets {
			fmt.Fprintf(&sb, " %s/%s", pl.rows[k.row].Lang, pl.rows[k.row].Cells[k.col].Class)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestPlanPinned(t *testing.T) {
	// Unit names, targets and order are part of the output contract: the
	// lowest-ordered failing unit names a cell's error.
	for _, tc := range []struct {
		golden string
		p      Params
	}{
		{"testdata/plan_default.golden", DefaultParams()},
		{"testdata/plan_short.golden", ShortParams()},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := planListing(buildPlan(tc.p, nil)); got != string(want) {
			t.Errorf("%s: plan differs:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 64} {
		var mu sync.Mutex
		counts := make([]int, 37)
		p := NewPool(WorkerCount(len(counts), workers))
		p.Run(len(counts), func(w, i int) {
			if w < 0 || w >= WorkerCount(len(counts), workers) {
				t.Errorf("workers=%d: worker id %d out of range", workers, w)
			}
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		p.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	seq := NewPool(WorkerCount(10, 1))
	defer seq.Close()
	seq.Run(10, func(w, i int) {
		if w != 0 {
			t.Fatalf("sequential pool used worker %d", w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential pool visited %v", order)
		}
	}
	// Zero work is a no-op for any worker count.
	empty := NewPool(WorkerCount(0, 4))
	defer empty.Close()
	empty.Run(0, func(int, int) { t.Fatal("fn called for empty range") })
}

func TestPoolReusableAcrossBatches(t *testing.T) {
	// The pool's reason to exist: several Run batches on the same workers,
	// each batch a complete barrier, worker ids stable and in range so
	// per-worker state stays exclusively owned across rounds.
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("pool of %d reports %d workers", workers, p.Workers())
		}
		var mu sync.Mutex
		for batch := 0; batch < 3; batch++ {
			counts := make([]int, 23)
			p.Run(len(counts), func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("worker id %d out of range [0,%d)", w, workers)
				}
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
			// Run returned: the batch barrier guarantees every index ran.
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d batch %d: index %d ran %d times", workers, batch, i, c)
				}
			}
		}
		p.Run(0, func(int, int) { t.Fatal("fn called for empty batch") })
		p.Close()
		p.Close() // idempotent
	}
}

func TestPoolInlineWhenSingleWorker(t *testing.T) {
	// A one-worker pool runs on the calling goroutine in index order, so
	// sequential callers see sequential semantics.
	p := NewPool(1)
	defer p.Close()
	var order []int
	p.Run(10, func(w, i int) {
		if w != 0 {
			t.Fatalf("inline pool used worker %d", w)
		}
		order = append(order, i) // no lock: calling goroutine only
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("inline pool visited %v", order)
		}
	}
}

// TestRunRejectsDegenerateParams pins Run's parameter floor: a field below
// its minimum runs no unit and returns no rows and a *ParamError naming the
// field, including the zero Params.
func TestRunRejectsDegenerateParams(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Params)
	}{
		{"Procs", func(p *Params) { p.Procs = 1 }},
		{"Procs", func(p *Params) { *p = Params{} }},
		{"Seeds", func(p *Params) { p.Seeds = nil }},
		{"Steps", func(p *Params) { p.Steps = 0 }},
		{"TimedSteps", func(p *Params) { p.TimedSteps = -1 }},
		{"SCSteps", func(p *Params) { p.SCSteps = 0 }},
		{"Window", func(p *Params) { p.Window = 0 }},
		{"Rounds", func(p *Params) { p.Rounds = 0 }},
		{"Stages", func(p *Params) { p.Stages = 0 }},
	} {
		p := ShortParams()
		tc.edit(&p)
		ran := false
		rows, err := Run(context.Background(), p, Options{OnCell: func(CellUpdate) { ran = true }})
		var perr *ParamError
		if !errors.As(err, &perr) || perr.Field != tc.field {
			t.Errorf("%s: error %v, want a *ParamError for %s", tc.field, err, tc.field)
		}
		if rows != nil || ran {
			t.Errorf("%s: %d rows returned, cells ran=%v; want none", tc.field, len(rows), ran)
		}
	}
	if err := ShortParams().Validate(); err != nil {
		t.Errorf("ShortParams: %v", err)
	}
	floor := Params{Procs: 2, Seeds: []int64{1}, Steps: 1, TimedSteps: 1, SCSteps: 1, Window: 1, Rounds: 1, Stages: 1}
	if err := floor.Validate(); err != nil {
		t.Errorf("the floor itself: %v", err)
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams: %v", err)
	}
}

// neverNO wraps a monitor so that its logic runs but every verdict reads
// YES: the canonical unsound decider.
func neverNO(m monitor.Monitor) monitor.Monitor {
	return monitor.NewMonitor("never-no("+m.Name()+")", func(n int) []monitor.Logic {
		logics := m.New(n)
		for i, l := range logics {
			logics[i] = yesLogic{l}
		}
		return logics
	})
}

type yesLogic struct{ monitor.Logic }

func (l yesLogic) Unwrap() monitor.Logic { return l.Logic }

func (l yesLogic) Decide(p *sched.Proc) monitor.Verdict {
	l.Logic.Decide(p)
	return monitor.Yes
}

func TestNeverNOFailsEveryOutOfLanguageUnit(t *testing.T) {
	// With every possibility cell's monitor made to answer YES, each
	// in-language unit still passes, and each out-of-language unit fails its
	// predicate on what x(E) shows: none is excused and none is too short to
	// judge.
	p := ShortParams()
	in := map[string]bool{} // "lang seed source" → the source's label
	for _, l := range lang.All() {
		for _, seed := range p.Seeds {
			for _, lb := range l.Sources(p.Procs, seed) {
				in[fmt.Sprintf("%s %d %s", l.Name, seed, lb.Name)] = lb.In
			}
		}
	}
	sess := monitor.NewSession()
	defer sess.Close()
	cells := map[string]bool{}
	outs := 0
	pl := buildPlan(p, neverNO)
	for _, u := range pl.units {
		var name, classes, source string
		var seed int64
		if n, _ := fmt.Sscanf(u.name, "%s × %s seed %d source %s", &name, &classes, &seed, &source); n != 4 {
			continue // an impossibility construction
		}
		label, ok := in[fmt.Sprintf("%s %d %s", name, seed, source)]
		if !ok {
			t.Fatalf("%s: no such labelled source", u.name)
		}
		errs := u.run(sess)
		for i, k := range u.targets {
			cell := pl.rows[k.row].Cells[k.col]
			cells[cell.Lang+" × "+cell.Class.String()] = true
			err := errs[i]
			var short *core.ShortRunError
			switch {
			case label && err != nil:
				t.Errorf("%s, %s: in-language unit failed: %v", u.name, cell.Class, err)
			case label:
			case err == nil:
				t.Errorf("%s, %s: never-NO monitor passed an out-of-language unit", u.name, cell.Class)
			case errors.As(err, &short):
				t.Errorf("%s, %s: x(E) shows no violation: %v", u.name, cell.Class, err)
			default:
				outs++
			}
		}
	}
	if len(cells) != 11 || outs == 0 {
		t.Errorf("swept %d possibility cells and %d out-of-language units, want all 11 cells and some units", len(cells), outs)
	}
}

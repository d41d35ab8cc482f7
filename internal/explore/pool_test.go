package explore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// reuseObjSpec builds a fixed object-family spec for one registered impl.
func reuseObjSpec(object, impl string, seed int64, n int) Spec {
	s := Spec{Family: FamObj, Object: object, Impl: impl, N: n, Seed: seed,
		Policy: PolRandom, Steps: 1200, OpsPerProc: 4, MutBias: 0.5}
	if seed%2 == 0 {
		s.Crashes = []Crash{{Step: 40, Proc: 1}}
	}
	return s
}

// reuseMsgSpec builds a fixed message-family spec for one registered
// emulation, cycling the network orders so reuse crosses order kinds too.
func reuseMsgSpec(object, impl string, seed int64, n int) Spec {
	s := Spec{Family: FamMsg, Object: object, Impl: impl, N: n, Seed: seed,
		Policy: PolRandom, Steps: 4000, OpsPerProc: 3, MutBias: 0.5,
		NetOrder: []string{"fifo", "lifo", "random", "starve"}[seed%4]}
	switch seed % 3 {
	case 0:
		s.Crashes = []Crash{{Step: 200, Proc: 1}}
	case 1:
		s.Drops = []int{2, 3, 4}
	}
	return s
}

// reuseLangSpec builds a fixed language-family spec for one source, run to
// its language's generator step floor so the class oracles get to run.
func reuseLangSpec(langName, source string, seed int64, n int, crash bool) Spec {
	l, _ := lang.ByName(langName)
	lo, _ := stepRange(l.Judge.Cond)
	s := Spec{Lang: langName, Source: source, N: n, Seed: seed, Policy: PolRandom, Steps: lo}
	if crash {
		s.Crashes = []Crash{{Step: 40, Proc: 1}}
	}
	return s
}

// dirtyLangSpec builds the spec that dirties a pooled runner before target
// runs: a language on the other side of the timed/untimed divide (the WD
// weak decider for a PSD or PWD target, alternately PSD and PWD for an
// untimed one), at a different process count, with a crash schedule.
func dirtyLangSpec(target lang.Lang, k int) Spec {
	other := "WEC_COUNT"
	if !classOf(target).Predictive() {
		other = []string{"LIN_LED", "SEC_COUNT"}[k%2]
	}
	l, _ := lang.ByName(other)
	n := []int{2, 4}[k%2]
	srcs := l.Sources(n, 0)
	return reuseLangSpec(other, srcs[k%len(srcs)].Name, 9, n, true)
}

// outcomeKey renders what a pooled execution must reproduce of a fresh one:
// the digest of the whole execution, the checks that ran or were skipped,
// and every divergence and oracle failure with its detail.
func outcomeKey(o *Outcome) string {
	return fmt.Sprintf("%s ran=%v skipped=%v divergences=%v oracle=%v",
		o.Digest, o.Ran, o.Skipped, o.Divergences, o.OracleFailures)
}

func TestPooledReuseMatchesFreshAcrossImpls(t *testing.T) {
	// The Reset contract, pinned per registered implementation: executing a
	// spec on a pooled runner whose cached instance already ran a *different*
	// spec (different seed, process count, crash and network schedule) must
	// reproduce a fresh instance's digest, checks and findings exactly. This
	// is the reuse-vs-fresh differential for every impl in both registries,
	// seeded-bug variants included — a bug variant whose planted state leaked
	// across runs would shift its outcome here — and for every language
	// source, whose adversary cursor, timed wrapper and digest buffer the
	// runner reuses.
	sess := monitor.NewSession()
	defer sess.Close()
	pooled := Runner{Session: sess}.Pooled()
	check := func(t *testing.T, dirty, target Spec) {
		t.Helper()
		fresh, err := Execute(target)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the cached instance (and the shared workload/service/Aτ
		// buffers) with a run at a different size and seed...
		if _, err := pooled.Execute(dirty); err != nil {
			t.Fatal(err)
		}
		// ...then the target must come out byte-identical to fresh.
		got, err := pooled.Execute(target)
		if err != nil {
			t.Fatal(err)
		}
		if g, f := outcomeKey(got), outcomeKey(fresh); g != f {
			t.Errorf("%s: reused %s vs fresh %s", target, g, f)
		}
	}
	for _, object := range Objects(FamObj) {
		for _, impl := range ImplsOf(FamObj, object) {
			t.Run(fmt.Sprintf("obj/%s/%s", object, impl), func(t *testing.T) {
				check(t, reuseObjSpec(object, impl, 6, 2), reuseObjSpec(object, impl, 3, 3))
			})
		}
	}
	for _, object := range Objects(FamMsg) {
		for _, impl := range ImplsOf(FamMsg, object) {
			t.Run(fmt.Sprintf("msg/%s/%s", object, impl), func(t *testing.T) {
				// Shrinking n across reuse (3 then 2 then 3) plus crossing
				// network orders is the hard case for the emulations: cell
				// sets, replica arrays and inboxes must all re-arm.
				check(t, reuseMsgSpec(object, impl, 6, 2), reuseMsgSpec(object, impl, 3, 3))
			})
		}
	}
	for _, l := range lang.All() {
		for k, src := range l.Sources(3, 0) {
			t.Run(fmt.Sprintf("lang/%s/%s", l.Name, src.Name), func(t *testing.T) {
				check(t, dirtyLangSpec(l, k), reuseLangSpec(l.Name, src.Name, 3, 3, false))
			})
		}
	}
}

func TestPooledRunnersPerGoroutine(t *testing.T) {
	// Worker isolation: each goroutine owns its own session and scratch, the
	// way Explore wires its pool, and concurrent pooled execution agrees with
	// sequential fresh execution. The race tier runs this under -race; a
	// scratch accidentally shared across workers would trip it.
	specs := make([]Spec, 0, 18)
	for i := 0; i < 6; i++ {
		specs = append(specs, NewSpec(91, i, objGen()))
		specs = append(specs, NewSpec(91, i, msgGen()))
		specs = append(specs, NewSpec(91, i, GenConfig{MaxCrashes: 2}))
	}
	want := make([]string, len(specs))
	for i, s := range specs {
		out, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outcomeKey(out)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := monitor.NewSession()
			defer sess.Close()
			r := Runner{Session: sess}.Pooled()
			for i, s := range specs {
				out, err := r.Execute(s)
				if err != nil {
					errs[w] = err
					return
				}
				if got := outcomeKey(out); got != want[i] {
					errs[w] = fmt.Errorf("worker %d: %s: got %s want %s", w, s, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestExecuteReleasesPerCallSession(t *testing.T) {
	// A runner without a session opens one per Execute call; its process
	// coroutines must be torn down before the call returns, or every
	// zero-value execution (drvexplore -replay, the fresh side of the
	// differentials) would leak n goroutines.
	specs := []Spec{NewSpec(91, 0, GenConfig{}), NewSpec(91, 0, objGen()), NewSpec(91, 0, msgGen())}
	base := runtime.NumGoroutine()
	for _, s := range specs {
		for i := 0; i < 20; i++ {
			if _, err := Execute(s); err != nil {
				t.Fatal(err)
			}
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%s: %d goroutines after 20 executions, %d before", s, got, base)
		}
	}
}

// Steady-state allocation budgets for one pooled scenario execution,
// workload through verdict. The values pin the pooled substrate: remaining
// allocations are per-scenario results (monitor state, sketches, oracle
// scratch growth, history clones, the Outcome itself), not setup — a
// regression that reintroduces per-scenario substrate construction (fresh
// runtime, implementation, workload, network, adversary cursor or timed
// adversary) blows well past them. Lang reuses the cursor and Aτ like obj and
// msg reuse theirs, its sources refill one chunk builder, and the digest
// hashes a reused buffer; before those, the same batch averaged ~5180
// pooled. The oracle searches intern queue, stack and ledger states into
// slab-allocated trees keyed by id; before that, each visited state cost its
// own node and memo-key bytes, and the batch averaged ~1408 obj and ~1189
// lang allocations, with budgets of 2000 and 1550. Ledger states stopped
// caching their record lists, and searches answer a complete get without
// building one; before that, the batch averaged ~233 obj and ~1119 lang
// allocations, with budgets of 300 and 1460. The SC oracle then rode the LIN
// oracle's checker, and the brute-force size test stopped building the
// operation list; before that, obj averaged ~193 with a budget of 250. A
// crashed process's inbox then kept its buffer, and a receive stopped
// building a gate closure; before that, msg averaged ~574 with a budget of
// 1100. The monitor logics then kept their boards, snapshot and delta
// buffers and sketch builders in the session, snapshots landed in reused
// buffers, Aτ took its views from a per-run slab, x(E) stopped being cloned
// and the policies reseeded one source; before that, the batch averaged ~177
// obj, ~494 msg and ~1060 lang allocations and ~239 KB per lang scenario,
// with budgets of 240, 650 and 1400. Every budget keeps about 1.3× its
// steady state.
const (
	objAllocBudget  = 100 // measured steady state ~77
	msgAllocBudget  = 510 // measured steady state ~393
	langAllocBudget = 400 // measured steady state ~308

	langBytesBudget = 44_000 // bytes per scenario; measured steady state ~33,700
)

func TestPooledExecuteAllocBudgetObj(t *testing.T) {
	testPooledAllocBudget(t, FamObj, objAllocBudget)
}

func TestPooledExecuteAllocBudgetMsg(t *testing.T) {
	testPooledAllocBudget(t, FamMsg, msgAllocBudget)
}

func TestPooledExecuteAllocBudgetLang(t *testing.T) {
	testPooledAllocBudget(t, FamLang, langAllocBudget)
}

// TestPooledExecuteAllocBudgetLangBytes bounds the heap bytes one warmed
// lang scenario allocates, a runtime.MemStats.TotalAlloc delta over the
// batch: the allocation count alone misses a buffer that is rebuilt at full
// size every scenario.
func TestPooledExecuteAllocBudgetLangBytes(t *testing.T) {
	run, runs := warmedBatch(t, FamLang)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	t.Logf("lang: pooled execution averages %.0f bytes per scenario, budget %d", avg, langBytesBudget)
	if avg > langBytesBudget {
		t.Errorf("lang: pooled execution averages %.0f bytes per scenario, budget %d", avg, langBytesBudget)
	}
}

func testPooledAllocBudget(t *testing.T, fam string, budget float64) {
	run, runs := warmedBatch(t, fam)
	avg := testing.AllocsPerRun(runs, run)
	t.Logf("%s: pooled execution averages %.0f allocs per scenario, budget %.0f", fam, avg, budget)
	if avg > budget {
		t.Errorf("%s: pooled execution averages %.0f allocs per scenario, budget %.0f", fam, avg, budget)
	}
}

// warmedBatch returns a function executing the next scenario of a 16-spec
// batch of the family on one pooled runner, warmed to steady state, and how
// many executions to measure: two passes over the batch.
func warmedBatch(t *testing.T, fam string) (func(), int) {
	cfg := GenConfig{Families: []string{fam}, MaxCrashes: 2}
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = NewSpec(1, i, cfg)
	}
	sess := monitor.NewSession()
	t.Cleanup(sess.Close)
	r := Runner{Session: sess}.Pooled()
	// Warm to steady state: impls cached, buffers at capacity, oracle
	// memo tables saturated for this spec batch.
	for round := 0; round < 2; round++ {
		for _, s := range specs {
			if _, err := r.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	return func() {
		if _, err := r.Execute(specs[i%len(specs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}, len(specs) * 2
}

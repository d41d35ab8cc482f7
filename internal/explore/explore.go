// Package explore is a seeded, deterministic scenario-exploration engine:
// randomized differential testing for the whole monitoring stack. The paper's
// Table 1 experiments exercise a curated execution per cell, but its
// decidability claims quantify over all asynchronous fault-prone executions;
// this package samples that space. Each scenario draws a random scheduling
// policy (package sched), a random crash schedule, and a labelled adversary
// source (package lang), runs a real monitor on a monitor.Session, and
// differentially checks the verdict stream against ground-truth oracles: the
// languages' safety checkers (package check), the sources' ω-membership
// labels, and structural invariants of the adversary construction.
//
// Everything is deterministic in the master seed: scenario i of master seed m
// is the same execution no matter how many workers run (scenarios fan out on
// the experiment package's worker Pool and fold back by index), so an
// explorer report is byte-reproducible and any divergence is replayable from
// its one-line seed spec. A divergent scenario is shrunk — fewer crashes,
// fewer processes, fewer scheduler steps — to a minimal reproducer before it
// is reported.
//
// A second scenario family — the object family, spec grammar drv2 — swaps
// the scripted adversary for the real concurrent implementations of package
// sut: each scenario runs a correct or seeded-bug implementation (queue,
// stack, register, counter, ledger) under a seeded random workload through
// the timed adversary Aτ and the Figure 8 predictive monitor, judges the
// exhibited history with the matching check oracle (differentially against
// the brute-force reference on small histories) and the verdict stream
// against the offline oracle under the predictive sketch escape. Violations
// of properties the implementation guarantees are divergences; violations
// of properties a seeded-bug implementation forfeits are bug findings,
// shrunk to minimal reproducers and summarized per implementation in the
// report (see sutrun.go).
//
// A third family — the message-passing family, spec grammar drv3 — runs
// objects emulated over asynchronous message passing (internal/msgnet): the
// ABD register of package abd and the counter and consensus walks built on
// it, each in a correct and a seeded-bug variant, under a deterministic
// seeded network schedule (delivery order, delay, reorder and explicit
// message loss) plus the usual crash schedule. The same Aτ + V_O stack
// monitors the emulated object's history, the same oracle battery judges it,
// and shrinking gains a message-schedule axis, dropping loss entries before
// crashes, processes, operations and steps (see msgrun.go).
//
// cmd/drvexplore is the command-line front end; corpus_test.go pins a
// regression list of interesting specs.
package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/lazyrand"
	"github.com/drv-go/drv/internal/monitor"
)

// Options configures one exploration run.
type Options struct {
	// Master seeds the whole exploration; scenario i derives its own
	// independent seed from (Master, i).
	Master int64
	// Scenarios is how many random scenarios to run.
	Scenarios int
	// Workers is the worker-pool size; ≤ 1 runs scenarios sequentially.
	Workers int
	// Gen constrains scenario generation.
	Gen GenConfig
	// Replay re-executes every scenario and reports a divergence when the
	// two runs' digests differ — the determinism axis of the differential
	// check. Doubles the work.
	Replay bool
	// Shrink minimizes divergent scenarios to small reproducers.
	Shrink bool
	// ShrinkBudget bounds the number of candidate executions one shrink may
	// spend (0 = default).
	ShrinkBudget int
	// StageStats, when true, adds a per-family, per-stage cost breakdown
	// (generate/execute/monitor/check wall time and allocations) to the
	// report's Stages field. Off by default: stage timing is nondeterministic,
	// so reports with it on are not byte-comparable, and the allocation deltas
	// are process-global (exact only at Workers <= 1).
	StageStats bool
	// Wrap, when non-nil, wraps every scenario's monitor; tests use it to
	// inject synthetically broken monitors and assert the explorer catches
	// them.
	Wrap func(monitor.Monitor) monitor.Monitor
	// OnScenario, when non-nil, receives one event per finished scenario.
	// Events are serialized but arrive in nondeterministic order when
	// Workers > 1.
	OnScenario func(index int, out *Outcome)
}

// Failure is one divergent scenario of a report.
type Failure struct {
	// Spec is the scenario's seed spec, replayable with drvexplore -replay.
	Spec string `json:"spec"`
	// Divergences are the failed checks.
	Divergences []Divergence `json:"divergences"`
	// Shrunk is the minimized reproducer ("" when shrinking was off or
	// failed to reproduce).
	Shrunk string `json:"shrunk,omitempty"`
	// ShrunkSteps is the scheduler step bound of the minimized reproducer.
	ShrunkSteps int `json:"shrunk_steps,omitempty"`
	// ShrunkDivergences are the checks that still fail on the reproducer.
	ShrunkDivergences []Divergence `json:"shrunk_divergences,omitempty"`
}

// Report is the deterministic outcome of an exploration.
type Report struct {
	Master    int64 `json:"master"`
	Scenarios int   `json:"scenarios"`
	// Failures lists divergent scenarios in scenario order.
	Failures []Failure `json:"failures"`
	// Checks counts how many times each differential check ran.
	Checks map[string]int `json:"checks"`
	// Skipped counts checks that did not apply (crashed runs skip label
	// checks, short runs skip tail proxies).
	Skipped map[string]int `json:"skipped"`
	// ByLang counts scenarios per language (language family).
	ByLang map[string]int `json:"by_lang"`
	// ByObject counts scenarios per object/impl pair (object family); nil
	// when the sweep ran no object scenarios, so language-only reports keep
	// their exact shape.
	ByObject map[string]int `json:"by_object,omitempty"`
	// Crashed counts scenarios that included at least one crash.
	Crashed int `json:"crashed"`
	// TotalSteps and TotalVerdicts aggregate the executions (replay runs
	// excluded).
	TotalSteps    int64 `json:"total_steps"`
	TotalVerdicts int64 `json:"total_verdicts"`
	// BugScenarios counts object scenarios whose schedule exposed a planted
	// implementation bug (an oracle failure on a non-guaranteed property).
	BugScenarios int `json:"bug_scenarios,omitempty"`
	// Bugs summarizes the exposed implementation bugs, one entry per
	// object/impl pair in first-hit scenario order, each with a shrunk
	// reproducer when shrinking is on.
	Bugs []Bug `json:"bugs,omitempty"`
	// Stages is the opt-in per-family, per-stage cost breakdown (see
	// Options.StageStats); nil when profiling was off, so default reports
	// keep their exact shape.
	Stages StageStats `json:"stages,omitempty"`
}

// Bug is one exposed implementation bug: the first scenario that tripped an
// oracle the implementation does not guarantee, minimized to a small
// reproducer. Where a Failure indicts the monitoring stack, a Bug indicts
// the system under test — finding these is what the object family is for.
type Bug struct {
	// Object and Impl name the registry entry (e.g. "queue", "lifo").
	Object string `json:"object"`
	Impl   string `json:"impl"`
	// Spec is the first scenario that exposed the bug.
	Spec string `json:"spec"`
	// Failures are the violated oracles of that scenario.
	Failures []Divergence `json:"failures"`
	// Count is how many scenarios of the sweep exposed this impl's bug.
	Count int `json:"count"`
	// Shrunk is the minimized reproducer ("" when shrinking was off or
	// failed to reproduce); ShrunkSteps its scheduler bound and
	// ShrunkFailures the oracles it still violates.
	Shrunk         string       `json:"shrunk,omitempty"`
	ShrunkSteps    int          `json:"shrunk_steps,omitempty"`
	ShrunkFailures []Divergence `json:"shrunk_failures,omitempty"`
}

// Divergent reports whether the exploration found any divergence.
func (r *Report) Divergent() bool { return len(r.Failures) > 0 }

// Explore runs the configured number of scenarios on a bounded worker pool
// and folds the outcomes into a report that is identical for every worker
// count. Every spec is built up front, one pool run executes them, and the
// fold — in scenario-index order — queues one shrink per new Bug and per
// Failure; the shrinks then run on the same pool, each writing only its own
// report entry.
func Explore(opts Options) (*Report, error) {
	if opts.Scenarios < 0 {
		return nil, fmt.Errorf("explore: negative scenario count %d", opts.Scenarios)
	}
	if err := opts.Gen.validate(); err != nil {
		return nil, err
	}

	// One runner per worker: each owns a pooled runtime+session pair and a
	// pooled execution substrate (SUT instances, workload, service, timed
	// adversary, network — see Runner.Pooled) for the whole sweep, so
	// scenario setup stops paying per-execution coroutine spawns, result
	// allocations and substrate rebuilds.
	pool := experiment.NewPool(experiment.WorkerCount(opts.Scenarios, opts.Workers))
	defer pool.Close()
	runners := make([]Runner, pool.Workers())
	var genStages *stageRecorder
	if opts.StageStats {
		genStages = newStageRecorder()
	}
	for w := range runners {
		runners[w] = Runner{Wrap: opts.Wrap, Session: monitor.NewSession()}.Pooled()
		if opts.StageStats {
			runners[w].stages = newStageRecorder()
		}
	}
	defer func() {
		for _, r := range runners {
			r.Session.Close()
		}
	}()

	rep := &Report{
		Master:    opts.Master,
		Scenarios: opts.Scenarios,
		Failures:  []Failure{},
		Checks:    map[string]int{},
		Skipped:   map[string]int{},
		ByLang:    map[string]int{},
	}

	// The generator rng is reused across indices by reseeding: a reseeded
	// lazyrand source yields exactly a fresh one's stream, so the draw
	// sequences — hence the specs — are byte-identical to per-index
	// construction, without an rng+source allocation per scenario. Spec
	// building is sequential, so sharing it is race-free, and worker count
	// never enters.
	specs := make([]Spec, opts.Scenarios)
	genRng := rand.New(lazyrand.NewSource(0))
	for i := range specs {
		mark := genStages.start()
		genRng.Seed(mix(opts.Master, int64(i)))
		specs[i] = newSpecSeeded(genRng, opts.Gen)
		genStages.stop(specs[i].Fam(), stageGenerate, mark)
	}

	outcomes := make([]*Outcome, opts.Scenarios)
	errs := make([]error, opts.Scenarios)
	var mu sync.Mutex
	pool.Run(opts.Scenarios, func(w, i int) {
		runner := runners[w]
		out, err := runner.Execute(specs[i])
		if err == nil && opts.Replay {
			again, err2 := runner.Execute(specs[i])
			if err2 != nil {
				err = err2
			} else {
				out.Ran = append(out.Ran, CheckReplay)
				if again.Digest != out.Digest {
					out.Divergences = append(out.Divergences, Divergence{
						Check:  CheckReplay,
						Detail: fmt.Sprintf("digest %s on first run, %s on replay", out.Digest, again.Digest),
					})
				}
			}
		}
		outcomes[i], errs[i] = out, err
		if opts.OnScenario != nil && out != nil {
			mu.Lock()
			opts.OnScenario(i, out)
			mu.Unlock()
		}
	})

	// Fold in scenario-index order: aggregate counters and queue the shrinks
	// of new bugs and divergences.
	var shrinks []shrinkJob
	for i, out := range outcomes {
		if errs[i] != nil {
			return nil, fmt.Errorf("explore: scenario %d (%s): %w", i, specs[i], errs[i])
		}
		if out.Spec.Fam() == FamObj || out.Spec.Fam() == FamMsg {
			if rep.ByObject == nil {
				rep.ByObject = map[string]int{}
			}
			// Keys stay unambiguous across families: the emulation slugs
			// (abd, nowriteback, lost, coord, ...) never collide with the
			// shared-memory ones.
			rep.ByObject[out.Spec.Object+"/"+out.Spec.Impl]++
		} else {
			rep.ByLang[out.Spec.Lang]++
		}
		if len(out.Spec.Crashes) > 0 {
			rep.Crashed++
		}
		for _, c := range out.Ran {
			rep.Checks[c]++
		}
		for _, c := range out.Skipped {
			rep.Skipped[c]++
		}
		rep.TotalSteps += int64(out.Steps)
		rep.TotalVerdicts += int64(out.Verdicts)
		if len(out.OracleFailures) > 0 {
			rep.BugScenarios++
			if rep.foldBug(out) && opts.Shrink {
				shrinks = append(shrinks, shrinkJob{bug: true, slot: len(rep.Bugs) - 1, spec: out.Spec, found: out.OracleFailures})
			}
		}
		if len(out.Divergences) == 0 {
			continue
		}
		rep.Failures = append(rep.Failures, Failure{Spec: out.Spec.String(), Divergences: out.Divergences})
		if opts.Shrink {
			shrinks = append(shrinks, shrinkJob{slot: len(rep.Failures) - 1, spec: out.Spec, found: firstRun(out.Divergences)})
		}
	}
	pool.Run(len(shrinks), func(w, j int) { shrinks[j].run(rep, runners[w], opts.ShrinkBudget) })
	if opts.StageStats {
		stats := StageStats{}
		stats.merge(genStages.stats)
		for _, r := range runners {
			stats.merge(r.stages.stats)
		}
		rep.Stages = stats
	}
	return rep, nil
}

// foldBug accounts one bug-exposing object scenario: the first hit per
// object/impl pair becomes a Bug entry, and foldBug reports true (the sweep
// shrinks that entry — one shrink per impl, so a sweep saturated with
// findings stays cheap); later hits only bump its count. Called in
// scenario-index order, so the Bugs list is as worker-count-independent as
// the rest of the report.
func (r *Report) foldBug(out *Outcome) bool {
	for i := range r.Bugs {
		if r.Bugs[i].Object == out.Spec.Object && r.Bugs[i].Impl == out.Spec.Impl {
			r.Bugs[i].Count++
			return false
		}
	}
	r.Bugs = append(r.Bugs, Bug{
		Object:   out.Spec.Object,
		Impl:     out.Spec.Impl,
		Spec:     out.Spec.String(),
		Failures: out.OracleFailures,
		Count:    1,
	})
	return true
}

// shrinkJob is one queued shrink of a report entry: Bugs[slot] when bug is
// set, else Failures[slot]. spec is the entry's scenario and found the
// findings its sweep execution produced, so the shrink starts from them
// instead of re-running the scenario.
type shrinkJob struct {
	bug   bool
	slot  int
	spec  Spec
	found []Divergence
}

// run shrinks the job's scenario on the runner and fills in its report
// entry's reproducer. It writes that entry alone, so jobs run concurrently.
func (j shrinkJob) run(rep *Report, r Runner, budget int) {
	if j.bug {
		r.classOnly = true // a bug shrink reads only OracleFailures
		shrunk, still := shrinkWhere(j.spec, j.found, r, budget, oracleFailures)
		if b := &rep.Bugs[j.slot]; len(still) > 0 {
			b.Shrunk, b.ShrunkSteps, b.ShrunkFailures = shrunk.String(), shrunk.Steps, still
		}
		return
	}
	shrunk, still := shrinkWhere(j.spec, j.found, r, budget, divergences)
	if f := &rep.Failures[j.slot]; len(still) > 0 {
		f.Shrunk, f.ShrunkSteps, f.ShrunkDivergences = shrunk.String(), shrunk.Steps, still
	}
}

// firstRun drops the replay check's divergence, which only a second
// execution can produce, leaving what one execution of the spec found.
func firstRun(ds []Divergence) []Divergence {
	if n := len(ds); n > 0 && ds[n-1].Check == CheckReplay {
		return ds[:n-1]
	}
	return ds
}

// CheckNames returns the names of every differential check the explorer can
// run across every scenario family, sorted; reports index their
// Checks/Skipped maps by these.
func CheckNames() []string {
	names := []string{
		CheckWellFormed, CheckSourcePrefix, CheckOwnSafety, CheckCrashQuiet,
		CheckLabelSafety, CheckClass, CheckOracle, CheckBrute, CheckMonitorLin,
		CheckReplay,
	}
	sort.Strings(names)
	return names
}

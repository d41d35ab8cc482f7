// Command drvexplore fuzzes the monitoring stack beyond Table 1's curated
// executions: it generates seeded random scenarios — random schedules,
// random crash schedules, random behaviours — runs the corresponding
// monitors, and differentially checks every verdict stream against the
// ground-truth oracles. Divergent scenarios are shrunk to minimal
// reproducers and reported as one-line seed specs.
//
// Three scenario families exist. The language family (-family lang, the
// default) replays labelled adversary sources for the seven Table 1
// languages. The object family (-family obj) runs the real concurrent
// implementations of internal/sut — queues, stacks, registers, counters,
// ledgers, in correct and seeded-bug variants — under random workloads
// through the timed adversary and the Figure 8 predictive monitor, and
// judges the exhibited histories with the internal/check oracles (and, on
// small histories, the brute-force reference checkers). Schedules that
// expose a seeded bug are reported (and shrunk) as bug findings; they
// exit 0 — finding them is the point — while stack divergences exit 1.
//
// The message-passing family (-family msg, spec grammar drv3) runs objects
// emulated over asynchronous message passing — the ABD register and the
// snapshot-counter and coordinator-consensus walks built on it — on a
// deterministic seeded network with per-scenario delivery order (-net
// fifo,lifo,random,starve), reordering and message loss, plus the usual
// crash schedules. The emulated object's history is judged with the same
// oracles, and the same bug-versus-divergence split applies to its seeded
// emulation bugs (a read that skips its write-back, a lost increment, an
// echoing coordinator).
//
// The sweep is deterministic: the same flags produce a byte-identical report
// (and -out file) for every worker count.
//
// Usage:
//
//	drvexplore [-seeds k] [-master m] [-j workers] [-family lang,obj,msg]
//	           [-lang L1,L2] [-obj O1,O2] [-impl I1,I2] [-net N1,N2]
//	           [-crashes c] [-max-steps s] [-replay-check]
//	           [-no-shrink] [-progress] [-stage-stats]
//	           [-out seeds.json] [-cpuprofile f]
//	drvexplore -replay "drv1:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600"
//	drvexplore -replay "drv2:obj/queue/lifo:n=2:seed=7:pol=random:steps=900:ops=4:mb=0.5"
//	drvexplore -replay "drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=lifo"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/drv-go/drv/internal/explore"
	"github.com/drv-go/drv/internal/startheap"
)

func main() {
	startheap.Adjust()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 200, "number of random scenarios to run")
	master := fs.Int64("master", 1, "master seed; scenario i derives its own stream from (master, i)")
	var workers int
	fs.IntVar(&workers, "j", runtime.NumCPU(), "worker-pool size; 1 runs scenarios sequentially")
	family := fs.String("family", "", "comma-separated scenario families: lang, obj, msg (default: lang)")
	langs := fs.String("lang", "", "comma-separated language filter (default: all seven)")
	objects := fs.String("obj", "", "comma-separated object filter for -family obj/msg (default: all)")
	impls := fs.String("impl", "", "comma-separated implementation filter for -family obj/msg (default: all)")
	nets := fs.String("net", "", "comma-separated network delivery orders for -family msg: fifo, lifo, random, starve (default: all)")
	crashes := fs.Int("crashes", 2, "max crashes per scenario (0 disables crash injection)")
	maxSteps := fs.Int("max-steps", 0, "cap on a scenario's scheduler step bound (0 = family defaults)")
	replayCheck := fs.Bool("replay-check", false, "re-execute every scenario and flag digest mismatches (doubles the work)")
	noShrink := fs.Bool("no-shrink", false, "report divergent scenarios without minimizing them")
	progress := fs.Bool("progress", false, "stream per-scenario completion to stderr")
	out := fs.String("out", "", "write the JSON report to this file")
	replay := fs.String("replay", "", "replay a single seed spec and print its outcome (ignores sweep flags)")
	stageStats := fs.Bool("stage-stats", false, "profile per-stage wall time and allocations (adds a stages map to the report and summary; timing is nondeterministic)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *replay != "" {
		return replayOne(*replay, stdout, stderr)
	}
	if workers < 1 {
		fmt.Fprintf(stderr, "drvexplore: -j %d: must be at least 1\n", workers)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "drvexplore: cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "drvexplore: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	opts := explore.Options{
		Master:     *master,
		Scenarios:  *seeds,
		Workers:    workers,
		Gen:        explore.GenConfig{MaxCrashes: *crashes, MaxSteps: *maxSteps},
		Replay:     *replayCheck,
		Shrink:     !*noShrink,
		StageStats: *stageStats,
	}
	if *family != "" {
		opts.Gen.Families = strings.Split(*family, ",")
	}
	if *nets != "" {
		// The network knob only shapes message-family scenarios: bare -net
		// implies -family msg, and an explicit family set that omits msg
		// would silently ignore it — a usage error.
		if *family == "" {
			opts.Gen.Families = []string{explore.FamMsg}
		} else if !slices.Contains(opts.Gen.Families, explore.FamMsg) {
			fmt.Fprintf(stderr, "drvexplore: -net needs the msg family (got -family %s)\n", *family)
			return 2
		}
		opts.Gen.NetOrders = strings.Split(*nets, ",")
	}
	if *objects != "" || *impls != "" {
		// The object filters only shape object- and message-family
		// scenarios: bare -obj/-impl implies -family obj, and an explicit
		// family set without obj or msg would silently ignore them — a
		// usage error.
		if *family == "" && *nets == "" {
			opts.Gen.Families = []string{explore.FamObj}
		} else if !slices.Contains(opts.Gen.Families, explore.FamObj) &&
			!slices.Contains(opts.Gen.Families, explore.FamMsg) {
			fmt.Fprintf(stderr, "drvexplore: -obj/-impl need the obj or msg family (got -family %s)\n", *family)
			return 2
		}
	}
	if *langs != "" {
		opts.Gen.Langs = strings.Split(*langs, ",")
	}
	if *objects != "" {
		opts.Gen.Objects = strings.Split(*objects, ",")
	}
	if *impls != "" {
		opts.Gen.Impls = strings.Split(*impls, ",")
	}
	if *progress {
		done := 0
		opts.OnScenario = func(i int, o *explore.Outcome) {
			done++
			status := "ok"
			if len(o.Divergences) > 0 {
				status = "DIVERGED"
			}
			fmt.Fprintf(stderr, "[%4d/%d] %-60s %s\n", done, *seeds, o.Spec.String(), status)
		}
	}

	rep, err := explore.Explore(opts)
	if err != nil {
		fmt.Fprintf(stderr, "drvexplore: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "explored %d scenarios (master seed %d): %d crashed runs, %d steps, %d verdicts\n",
		rep.Scenarios, rep.Master, rep.Crashed, rep.TotalSteps, rep.TotalVerdicts)
	fmt.Fprintf(stdout, "checks run: %s\n", countList(rep.Checks))
	fmt.Fprintf(stdout, "checks skipped: %s\n", countList(rep.Skipped))
	if *stageStats && len(rep.Stages) > 0 {
		fams := make([]string, 0, len(rep.Stages))
		for fam := range rep.Stages {
			fams = append(fams, fam)
		}
		sort.Strings(fams)
		for _, fam := range fams {
			b := rep.Stages[fam]
			fmt.Fprintf(stdout, "stages[%s]: generate %s | execute %s | monitor %s | check %s\n",
				fam, stageCost(b.Generate), stageCost(b.Execute), stageCost(b.Monitor), stageCost(b.Check))
		}
	}
	if len(rep.ByObject) > 0 {
		fmt.Fprintf(stdout, "objects: %s\n", countList(rep.ByObject))
		fmt.Fprintf(stdout, "bugs: %d scenario(s) exposed bugs in %d implementation(s)\n",
			rep.BugScenarios, len(rep.Bugs))
		for _, b := range rep.Bugs {
			fmt.Fprintf(stdout, "\nBUG %s/%s (%d scenario(s)) %s\n", b.Object, b.Impl, b.Count, b.Spec)
			for _, d := range b.Failures {
				fmt.Fprintf(stdout, "  %-14s %s\n", d.Check+":", d.Detail)
			}
			if b.Shrunk != "" {
				fmt.Fprintf(stdout, "  shrunk to %s (%d steps)\n", b.Shrunk, b.ShrunkSteps)
				for _, d := range b.ShrunkFailures {
					fmt.Fprintf(stdout, "    %-12s %s\n", d.Check+":", d.Detail)
				}
			}
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "\nDIVERGENCE %s\n", f.Spec)
		for _, d := range f.Divergences {
			fmt.Fprintf(stdout, "  %-14s %s\n", d.Check+":", d.Detail)
		}
		if f.Shrunk != "" {
			fmt.Fprintf(stdout, "  shrunk to %s (%d steps)\n", f.Shrunk, f.ShrunkSteps)
			for _, d := range f.ShrunkDivergences {
				fmt.Fprintf(stdout, "    %-12s %s\n", d.Check+":", d.Detail)
			}
		}
	}

	// A failed report write is a runtime failure (exit 1, like a failed
	// reproduction), never a usage error, and must not suppress the
	// divergence summary.
	writeFailed := false
	if *out != "" {
		js, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(js, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "drvexplore: writing report: %v\n", err)
			writeFailed = true
		}
	}

	if rep.Divergent() {
		fmt.Fprintf(stdout, "\n%d divergent scenario(s)\n", len(rep.Failures))
		return 1
	}
	fmt.Fprintln(stdout, "no divergences")
	if writeFailed {
		return 1
	}
	return 0
}

// replayOne executes a single seed spec and prints its outcome.
func replayOne(specLine string, stdout, stderr io.Writer) int {
	s, err := explore.ParseSpec(specLine)
	if err != nil {
		fmt.Fprintf(stderr, "drvexplore: %v\n", err)
		return 2
	}
	out, err := explore.Execute(s)
	if err != nil {
		fmt.Fprintf(stderr, "drvexplore: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "spec:     %s\n", out.Spec)
	fmt.Fprintf(stdout, "monitor:  %s\n", out.Monitor)
	if out.Spec.Fam() == explore.FamLang {
		fmt.Fprintf(stdout, "label:    in-language=%v\n", out.Label)
	} else {
		fmt.Fprintf(stdout, "label:    correct-impl=%v\n", out.Label)
	}
	fmt.Fprintf(stdout, "steps:    %d\nverdicts: %d (%d NO)\ndigest:   %s\n", out.Steps, out.Verdicts, out.NOs, out.Digest)
	fmt.Fprintf(stdout, "checks:   ran %s; skipped %s\n", strings.Join(out.Ran, ","), strings.Join(out.Skipped, ","))
	// Exposed implementation bugs are findings about the system under test,
	// not failures of the monitoring stack: report them, exit 0.
	for _, d := range out.OracleFailures {
		fmt.Fprintf(stdout, "BUG %-14s %s\n", d.Check+":", d.Detail)
	}
	if len(out.Divergences) == 0 {
		fmt.Fprintln(stdout, "no divergences")
		return 0
	}
	for _, d := range out.Divergences {
		fmt.Fprintf(stdout, "DIVERGENCE %-14s %s\n", d.Check+":", d.Detail)
	}
	return 1
}

// stageCost renders one stage's aggregate as "<wall>/<allocs> allocs".
func stageCost(c explore.StageCost) string {
	return fmt.Sprintf("%s/%d allocs", time.Duration(c.Nanos).Round(time.Microsecond), c.Allocs)
}

// countList renders a count map deterministically as "name=count
// name=count": known check names first in CheckNames order, then any other
// keys sorted — a report from a newer explorer must not have its counters
// silently dropped. "none" when the map contributes nothing.
func countList(m map[string]int) string {
	parts := make([]string, 0, len(m))
	known := map[string]bool{}
	for _, name := range explore.CheckNames() {
		known[name] = true
		if c, ok := m[name]; ok {
			parts = append(parts, fmt.Sprintf("%s=%d", name, c))
		}
	}
	var rest []string
	for name := range m {
		if !known[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		parts = append(parts, fmt.Sprintf("%s=%d", name, m[name]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

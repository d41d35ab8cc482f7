// Command drvtable regenerates Table 1 of the paper: for every language row
// and decidability notion it runs the corresponding possibility monitor or
// impossibility construction and prints the resulting matrix, marking any
// cell whose reproduction failed.
//
// Cells run on a bounded worker pool (-j); results are folded back in plan
// order, so the printed table is byte-identical for every worker count.
//
// Usage:
//
//	drvtable [-procs n] [-seeds k] [-steps s] [-timed-steps s] [-sc-steps s]
//	         [-window w] [-rounds r] [-stages k] [-j workers]
//	         [-progress] [-fail-fast] [-timeout d] [-cpuprofile f] [-v]
//
// -procs must be at least 2 and the other sizes at least 1; below that
// drvtable exits 2 before running anything.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/startheap"
)

// paramFlags names the flag that sets each experiment.Params field.
var paramFlags = map[string]string{
	"Procs":      "procs",
	"Seeds":      "seeds",
	"Steps":      "steps",
	"TimedSteps": "timed-steps",
	"SCSteps":    "sc-steps",
	"Window":     "window",
	"Rounds":     "rounds",
	"Stages":     "stages",
}

func main() {
	startheap.Adjust()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvtable", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 3, "monitor process count for possibility cells")
	seeds := fs.Int("seeds", 2, "number of scheduling seeds per possibility cell")
	steps := fs.Int("steps", 30_000, "step bound for untimed possibility runs")
	timedSteps := fs.Int("timed-steps", 4_000, "step bound for predictive-monitor runs")
	scSteps := fs.Int("sc-steps", 1_500, "step bound for sequential-consistency monitor runs")
	window := fs.Int("window", 4, "verdict-tail window for the ω-quantifier proxies")
	rounds := fs.Int("rounds", 8, "rounds for the Lemma 5.1 swap and prefix attacks")
	stages := fs.Int("stages", 3, "alternation stages for the Lemma 6.5 attack")
	verbose := fs.Bool("v", false, "print per-cell method and evidence")
	var workers int
	fs.IntVar(&workers, "j", runtime.NumCPU(), "worker-pool size; 1 runs the cells sequentially")
	progress := fs.Bool("progress", false, "stream per-cell completion to stderr")
	failFast := fs.Bool("fail-fast", false, "cancel outstanding cells after the first failure")
	timeout := fs.Duration("timeout", 0, "overall deadline, checked between cell units — in-flight runs finish their step bound (0 = none)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if workers < 1 {
		fmt.Fprintf(stderr, "drvtable: -j %d: must be at least 1\n", workers)
		return 2
	}

	p := experiment.Params{
		Procs:      *procs,
		Steps:      *steps,
		TimedSteps: *timedSteps,
		SCSteps:    *scSteps,
		Window:     *window,
		Rounds:     *rounds,
		Stages:     *stages,
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		p.Seeds = append(p.Seeds, s)
	}
	var perr *experiment.ParamError
	if err := p.Validate(); errors.As(err, &perr) {
		name := paramFlags[perr.Field]
		fmt.Fprintf(stderr, "drvtable: -%s %s: must be at least %d\n", name, fs.Lookup(name).Value, perr.Min)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "drvtable: cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "drvtable: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := experiment.Options{Workers: workers, FailFast: *failFast}
	if *progress {
		start := time.Now()
		opts.OnCell = func(u experiment.CellUpdate) {
			status := "ok"
			if !u.Cell.OK() {
				status = "FAILED"
			}
			fmt.Fprintf(stderr, "[%2d/%d %7.2fs] %-10s × %-3s %s\n",
				u.Done, u.Total, time.Since(start).Seconds(), u.Cell.Lang, u.Cell.Class, status)
		}
	}

	rows, runErr := experiment.Run(ctx, p, opts)
	fmt.Fprintln(stdout, "Table 1 — decidability of the example languages (✓ decidable, ✗ impossible; '!' marks a failed reproduction)")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, experiment.Render(rows))

	failures := 0
	for _, row := range rows {
		for _, cell := range row.Cells {
			if *verbose {
				status := "ok"
				if cell.Err != nil {
					status = "FAILED: " + cell.Err.Error()
				}
				fmt.Fprintf(stdout, "\n%s × %s (%s)\n  method:   %s\n  evidence: %s\n  status:   %s\n",
					cell.Lang, cell.Class, cell.Mark(), cell.Method, cell.Evidence, status)
			}
			if cell.Err != nil {
				failures++
				if !*verbose {
					fmt.Fprintf(stderr, "FAILED %s × %s: %v\n", cell.Lang, cell.Class, cell.Err)
				}
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "\nrun interrupted: %v\n", runErr)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "\n%d cell(s) failed to reproduce\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "\nall 28 cells reproduced")
	return 0
}

// Command bench is the repository's benchmark: it measures drvtable,
// drvexplore and drvserve end to end, exactly as users run them, and, in a
// separate traced run, the layers underneath through their Go APIs.
//
// Run it from the repository root through its wrapper, which builds it with
// a build cache under .bench_build/:
//
//	bash bench/run.sh --workload serve-tcp --seed 1 --seconds 10 --trace 0
//
// Workloads: table1, explore-lang, explore-obj, explore-msg, serve-tcp (see
// README.md for what each stresses and why). With --trace 0 the run builds
// the cmd/ binaries, drives them as child processes for about --seconds and
// prints the end-to-end metrics; with --trace 1 it drives the same inputs
// through the library with spans around every layer call and prints the
// per-layer metrics. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every output is
// checked, and the exit code is 1 when any check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's verdict line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what one workload run produced: the result plus diagnostics
// that go to -out and standard error only.
type outcome struct {
	result
	// firstFailure describes the first failed check, if any.
	firstFailure string
	// digests are the sha256 sums of the explore reports, per master.
	digests map[string]string
}

// fail records a failed check.
func (o *outcome) fail(n int, why string) {
	o.Failed += n
	if o.firstFailure == "" {
		o.firstFailure = why
	}
}

// bench is the state one invocation shares between its workloads.
type bench struct {
	root   string        // repository root
	work   string        // scratch directory under .bench_build
	bin    string        // built cmd/ binaries
	seed   int64         // workload seed
	length time.Duration // how long a run measures
	toy    bool          // toy sizes everywhere (the smoke test)
	log    io.Writer     // diagnostics
	buildS float64       // informational: time to build the binaries
	pool   *pool         // the traced run's shared serve pool
}

// workload is one benchmark workload: its untraced end-to-end run through
// the CLI binaries, and the library part its traced run drives on the
// workload's own inputs. README.md says why each one is here.
type workload struct {
	name string
	run  func(b *bench) (*outcome, error)
	part string
}

var workloads = []workload{
	{name: "table1", run: runTable1, part: "experiment"},
	{name: "explore-lang", run: exploreRunner("lang"), part: "explore.lang"},
	{name: "explore-obj", run: exploreRunner("obj"), part: "explore.obj"},
	{name: "explore-msg", run: exploreRunner("msg"), part: "explore.msg"},
	{name: "serve-tcp", run: runServeTCP, part: "serve"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1, explore-lang, explore-obj, explore-msg or serve-tcp")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	spansPath := fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	outPath := fs.String("out", "", "write the result, its diagnostics and the explore report digests to this JSON file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: bench --workload W --seed N --seconds S --trace 0|1 [--spans FILE] [--out FILE]")
		return 2
	}
	b := &bench{seed: *seed, length: time.Duration(*seconds) * time.Second, log: stderr}
	var err error
	if b.root, err = os.Getwd(); err == nil {
		err = b.prepare()
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	var o *outcome
	var sp *spans
	if *traced == 1 {
		sp = newSpans()
		o, err = b.traced(w, sp)
	} else {
		// The benchmark's own goroutines (the serve-tcp load generator) get
		// one processor, so they take as little as possible from the
		// measured program next to them.
		runtime.GOMAXPROCS(1)
		if err = b.build(); err == nil {
			o, err = w.run(b)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for name, v := range o.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			o.fail(0, "metric "+name+" was not measured")
			delete(o.Metrics, name)
		}
	}
	o.Correct = o.Failed == 0 && o.firstFailure == "" && o.Attempted > 0
	if o.firstFailure != "" {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, o.firstFailure)
	}
	report(stdout, w.name, o)
	if sp != nil && *spansPath != "" {
		if err := sp.write(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *outPath != "" {
		if err := b.writeOut(*outPath, w.name, o); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !o.Correct {
		return 1
	}
	return 0
}

// report prints one "workload metric value unit" line per metric, then the
// JSON result as the last line.
func report(w io.Writer, name string, o *outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", name, n, m.Value, m.Unit)
	}
	js, _ := json.Marshal(o.result)
	fmt.Fprintf(w, "%s\n", js)
}

// writeOut stores the result with its diagnostics.
func (b *bench) writeOut(path, name string, o *outcome) error {
	js, err := json.MarshalIndent(struct {
		Workload     string            `json:"workload"`
		Seed         int64             `json:"seed"`
		Result       result            `json:"result"`
		FirstFailure string            `json:"first_failure,omitempty"`
		BuildS       float64           `json:"build_s,omitempty"`
		Digests      map[string]string `json:"explore_report_sha256,omitempty"`
	}{name, b.seed, o.result, o.firstFailure, b.buildS, o.digests}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

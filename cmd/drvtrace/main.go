// Command drvtrace generates labelled behaviour traces: it runs one of a
// language's behaviour sources against the adversary A under a seeded
// schedule and writes the exhibited word — with its ground-truth membership
// label — as a JSON-lines trace, ready for offline re-checking with drvmon.
//
// Usage:
//
//	drvtrace -lang WEC_COUNT [-list] [-source name] [-n 3] [-seed 1] [-steps 20000] [-o out.jsonl]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, l := range lang.All() {
		names = append(names, l.Name)
	}
	langName := fs.String("lang", lang.WECCount().Name, "language: "+strings.Join(names, ", "))
	list := fs.Bool("list", false, "list the language's behaviour sources and exit")
	source := fs.String("source", "", "behaviour source name (default: first source)")
	n := fs.Int("n", 3, "process count")
	seed := fs.Int64("seed", 1, "schedule and workload seed")
	steps := fs.Int("steps", 20_000, "scheduler step bound (0 = monitor.DefaultMaxSteps)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// The behaviour sources need at least two processes, and a negative
	// step bound would lift the cap: reject both before running anything.
	if *n < 2 {
		fmt.Fprintf(stderr, "drvtrace: -n %d: must be at least 2\n", *n)
		return 2
	}
	if *steps < 0 {
		fmt.Fprintf(stderr, "drvtrace: -steps %d: must be at least 0\n", *steps)
		return 2
	}

	l, err := lang.ByName(*langName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	sources := l.Sources(*n, *seed)
	if *list {
		fmt.Fprintf(stdout, "sources of %s (n=%d, seed=%d):\n", l.Name, *n, *seed)
		for _, lb := range sources {
			fmt.Fprintf(stdout, "  %-20s in-language: %v\n", lb.Name, lb.In)
		}
		return 0
	}
	var chosen *adversary.Labeled
	for i := range sources {
		if *source == "" || sources[i].Name == *source {
			chosen = &sources[i]
			break
		}
	}
	if chosen == nil {
		fmt.Fprintf(stderr, "unknown source %q (use -list)\n", *source)
		return 2
	}

	adv := adversary.NewA(*n, chosen.New())
	res := monitor.Run(monitor.Config{
		N:       *n,
		Monitor: monitor.Constant(monitor.Yes),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return adv, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(*seed, aux[0], 0.5)
		},
		MaxSteps: *steps,
	})

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "create %s: %v\n", *out, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	tw := trace.NewWriter(w)
	member := chosen.In
	if err := tw.WriteMeta(trace.Meta{
		N:      *n,
		Lang:   l.Name,
		Member: &member,
		Seed:   *seed,
		Note:   "source=" + chosen.Name,
	}); err != nil {
		fmt.Fprintf(stderr, "write meta: %v\n", err)
		return 1
	}
	if err := tw.WriteWord(res.History); err != nil {
		fmt.Fprintf(stderr, "write trace: %v\n", err)
		return 1
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "flush: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d symbols of %s/%s (in-language: %v)\n",
		len(res.History), l.Name, chosen.Name, chosen.In)
	return 0
}

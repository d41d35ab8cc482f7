// Command drvsketch reproduces Figure 7: it runs the predictive monitor V_O
// against the timed adversary Aτ on a register behaviour, reconstructs the
// sketch x~(E) from the views (Appendix B), and renders both the input word
// x(E) and the sketch as ASCII interval diagrams, making the "shrinking" of
// operations visible.
//
// Usage:
//
//	drvsketch [-n 3] [-seed 1] [-steps 600] [-source name] [-kind atomic|aadgms|collect]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sketch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvsketch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 3, "process count (Figure 7 uses 3)")
	seed := fs.Int64("seed", 1, "schedule seed")
	steps := fs.Int("steps", 600, "scheduler step bound (0 = monitor.DefaultMaxSteps)")
	source := fs.String("source", "", "register behaviour source (default: first; see drvtrace -list -lang LIN_REG)")
	kindName := fs.String("kind", "atomic", "announcement array kind: atomic, aadgms or collect")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// The behaviour sources need at least two processes, and a negative
	// step bound would lift the cap: reject both before running anything.
	if *n < 2 {
		fmt.Fprintf(stderr, "drvsketch: -n %d: must be at least 2\n", *n)
		return 2
	}
	if *steps < 0 {
		fmt.Fprintf(stderr, "drvsketch: -steps %d: must be at least 0\n", *steps)
		return 2
	}

	kind, err := adversary.ParseArrayKind(*kindName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	sources := lang.LinReg().Sources(*n, *seed)
	var chosen *adversary.Labeled
	for i := range sources {
		if *source == "" || sources[i].Name == *source {
			chosen = &sources[i]
			break
		}
	}
	if chosen == nil {
		fmt.Fprintf(stderr, "unknown source %q\n", *source)
		return 2
	}

	adv := adversary.NewA(*n, chosen.New())
	tau := adversary.NewTimed(*n, adv, kind)
	res := monitor.Run(monitor.Config{
		N:       *n,
		Monitor: monitor.NewLin(trace.Register(), tau, kind),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(*seed, aux[0], 0.5)
		},
		MaxSteps: *steps,
	})

	sk, err := res.Sketch(*n, tau.InvAt)
	if err != nil {
		fmt.Fprintf(stderr, "sketch reconstruction: %v\n", err)
		if kind == adversary.ArrayCollect {
			fmt.Fprintln(stderr, "(collect views need not be totally ordered — this is the Section 6.2 caveat)")
		}
		return 1
	}
	fmt.Fprintf(stdout, "behaviour: %s/%s (in LIN_REG: %v), %d processes, seed %d\n\n",
		lang.LinReg().Name, chosen.Name, chosen.In, *n, *seed)
	fmt.Fprint(stdout, sketch.RenderComparison(res.History, sk))

	noTotal := res.TotalNO()
	fmt.Fprintf(stdout, "\nmonitor verdicts: %d NO reports across %d processes\n", noTotal, *n)
	return 0
}

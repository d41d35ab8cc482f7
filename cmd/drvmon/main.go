// Command drvmon re-checks recorded traces offline: it reads a JSON-lines
// trace (from drvtrace) and runs the judge of every language over the trace
// language's object on the recorded word — each reports the first violating
// response-ended prefix — plus the language's convergence diagnostic, if it
// has a liveness clause. The trace language's own verdict is compared
// against the trace's ground-truth label when one is present; the label
// describes that language only, so -lang may name another language over the
// same object, whose verdict is not compared.
//
// Usage:
//
//	drvmon [-lang LANG] trace.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/lang"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	langName := fs.String("lang", "", "language to check against (default: the trace's own)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: drvmon [-lang LANG] trace.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "open: %v\n", err)
		return 1
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fmt.Fprintf(stderr, "parse: %v\n", err)
		return 1
	}
	if err := trace.WellFormed(tr.Word); err != nil {
		fmt.Fprintf(stderr, "trace: %v\n", err)
		return 1
	}
	for _, sym := range tr.Word {
		if sym.Proc < 0 || sym.Proc >= tr.Meta.N {
			fmt.Fprintf(stderr, "trace: history mentions process %d; the trace's %d processes are numbered from 0\n", sym.Proc, tr.Meta.N)
			return 1
		}
	}

	name := *langName
	if name == "" {
		name = tr.Meta.Lang
	}
	if name == "" {
		fmt.Fprintln(stderr, "trace has no language; pass -lang")
		return 2
	}
	l, err := lang.ByName(name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if own, err := lang.ByName(tr.Meta.Lang); err == nil && own.Object.Name() != l.Object.Name() {
		fmt.Fprintf(stderr, "-lang %s judges %s histories, but the trace's language %s is over a %s\n",
			l.Name, l.Object.Name(), own.Name, own.Object.Name())
		return 2
	}

	fmt.Fprintf(stdout, "trace: %d symbols, %d processes, language %s\n", len(tr.Word), tr.Meta.N, name)
	// Each judge over the object runs once, the trace language's among them.
	var judged strings.Builder
	violated := false
	for _, other := range lang.All() {
		if other.Object.Name() != l.Object.Name() {
			continue
		}
		verdict := "ok"
		if v := other.Judge.Violation(tr.Word, nil); v != nil {
			violated = violated || other.Name == l.Name
			verdict = fmt.Sprintf("violated at prefix %d", v.Prefix)
			if v.Detail != "" {
				verdict += ": " + v.Detail
			}
		}
		fmt.Fprintf(&judged, "%s safety: %s\n", other.Name, verdict)
	}
	fmt.Fprintf(stdout, "safety clauses: violated=%v\n%s", violated, judged.String())
	if converged, ok := l.Judge.Converges(tr.Word); ok {
		fmt.Fprintf(stdout, "convergence (quiescent tail): %v\n", converged)
	}

	switch {
	case tr.Meta.Member == nil:
	case tr.Meta.Lang != "" && tr.Meta.Lang != l.Name:
		fmt.Fprintf(stdout, "ground truth (ω-word) labels %s, not %s: not compared\n", tr.Meta.Lang, l.Name)
	default:
		fmt.Fprintf(stdout, "ground truth (ω-word): in-language=%v\n", *tr.Meta.Member)
		if *tr.Meta.Member && violated {
			fmt.Fprintln(stdout, "MISMATCH: safety violation on an in-language trace")
			return 1
		}
		if !*tr.Meta.Member && !violated {
			fmt.Fprintln(stdout, "note: no prefix violation found — the word's badness is a liveness property (see the convergence diagnostics)")
		}
	}
	return 0
}

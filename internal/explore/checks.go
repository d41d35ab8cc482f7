package explore

import (
	"errors"
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// Differential check names.
const (
	// CheckWellFormed: the exhibited history must satisfy the finite-prefix
	// part of Definition 2.1 — an adversary-construction invariant.
	CheckWellFormed = "wellformed"
	// CheckSourcePrefix: per process, the exhibited history must be a
	// prefix of the source's word projection — the cursor may drop crashed
	// processes' symbols and (for Aτ) reorder across processes, but never
	// reorder, invent or lose a live process's events.
	CheckSourcePrefix = "source-prefix"
	// CheckOwnSafety: a counter monitor whose own projection already
	// violates a prefix-falsifying clause — WEC clauses (1)–(2), which the
	// process observes entirely on its own — must report NO from that point
	// on. Evaluated verdict by verdict via Result.HistAt, so it applies to
	// crashed runs and to arbitrarily short prefixes.
	CheckOwnSafety = "own-safety"
	// CheckCrashQuiet: a crashed process reports no verdict after its
	// crash step.
	CheckCrashQuiet = "crash-quiet"
	// CheckLabelSafety: on crash-free runs of an in-language source, the
	// exhibited prefix must pass the language's safety checker — the
	// generator-versus-checker axis of the differential.
	CheckLabelSafety = "label-safety"
	// CheckClass: the language's decidability predicate (WD, PWD or PSD;
	// see classOf), judged by core.Eval on crash-free runs — the
	// monitor-versus-oracle axis. Crashes invalidate the ω-label (dropped
	// events change membership), so crashed runs skip it.
	CheckClass = "class"
	// CheckReplay: re-executing the spec must reproduce the digest.
	CheckReplay = "replay"

	// Object-scenario checks, message passing included (see sutrun.go):
	//
	// CheckOracle: every property the implementation guarantees must hold on
	// the exhibited history (violations of non-guaranteed properties are
	// OracleFailures — planted bugs found, not divergences).
	CheckOracle = "oracle"
	// CheckBrute: the memoized witness search must agree with the
	// exhaustive brute-force reference on small histories.
	CheckBrute = "brute"
	// CheckMonitorLin: V_O's verdict stream against the offline
	// linearizability oracle, judged by core.Eval under PSD — no NO on a
	// linearizable history unless its sketch violates, and some NO when the
	// history and its covered sketch (of the responses some verdict judged)
	// both violate, on crashed, lossy and step-cut runs too.
	CheckMonitorLin = "monitor-lin"
)

// Divergence is one failed differential check.
type Divergence struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// evalWindow is the verdict-tail length interpreting the ω-quantifiers
// ("finitely many NOs") on finite runs, as in the Table 1 harness.
const evalWindow = 4

// labelSafetyCap bounds how many history symbols the label-safety oracle
// checks. The per-prefix checks run in one incremental pass, and most
// symbols only extend the cached witness, but a symbol that refutes it
// falls back to the residual witness search, which is exponential in the
// worst case, so unbounded histories could still dominate a sweep. A capped
// check is still sound — any prefix of an in-language word must be clean.
const labelSafetyCap = 600

func (o *Outcome) ran(name string)     { o.Ran = append(o.Ran, name) }
func (o *Outcome) skipped(name string) { o.Skipped = append(o.Skipped, name) }

func (o *Outcome) diverge(name, format string, args ...any) {
	o.Divergences = append(o.Divergences, Divergence{Check: name, Detail: fmt.Sprintf(format, args...)})
}

// runChecks evaluates every applicable differential check, appending
// divergences and bookkeeping to the outcome.
func (r Runner) runChecks(out *Outcome, l lang.Lang, lb adversary.Labeled, res *monitor.Result, tau *adversary.Timed) {
	s := out.Spec
	crashed := len(s.Crashes) > 0

	out.ran(CheckWellFormed)
	if err := trace.WellFormed(res.History); err != nil {
		out.diverge(CheckWellFormed, "%v", err)
	}

	out.ran(CheckSourcePrefix)
	checkSourcePrefix(out, lb, tau != nil, res)

	if c := l.Judge.Cond; c == lang.WEC || c == lang.SEC {
		out.ran(CheckOwnSafety)
		checkOwnSafety(out, res)
	}

	if crashed {
		out.ran(CheckCrashQuiet)
		checkCrashQuiet(out, res)
	}

	// The label-based oracles quantify over the source's ω-word; crashes
	// drop events from the exhibited word, so the label no longer applies.
	if crashed {
		out.skipped(CheckLabelSafety)
		out.skipped(CheckClass)
		return
	}

	out.ran(CheckLabelSafety)
	if lb.In {
		prefix := res.History
		if len(prefix) > labelSafetyCap {
			prefix = prefix[:labelSafetyCap]
		}
		if l.Judge.Violation(prefix, r.Session.CheckPool()) != nil {
			out.diverge(CheckLabelSafety,
				"source %s is labelled in-language but its exhibited prefix fails the %s safety checker", lb.Name, l.Name)
		}
	}

	r.checkClass(out, l, lb, res, tau)
}

// checkCrashQuiet asserts a crashed process reports no verdict after its
// crash step; shared by every scenario family.
func checkCrashQuiet(out *Outcome, res *monitor.Result) {
	for _, c := range out.Spec.Crashes {
		for k, step := range res.StepAt[c.Proc] {
			if step > c.Step {
				out.diverge(CheckCrashQuiet,
					"process %d crashed at step %d but reported verdict %d at step %d", c.Proc, c.Step, k, step)
				break
			}
		}
	}
}

// checkSourcePrefix re-generates the source and streams it against the
// exhibited history, one source symbol at a time. On untimed crash-free runs
// the history must be a verbatim prefix of the source word (the cursor emits
// symbols in source order), so the stream stops after len(History) symbols.
// Otherwise each process's history projection must be a prefix of its source
// projection: one cursor per process points at the process's next unmatched
// history symbol, and the stream stops once every process has matched its
// whole projection or mismatched, or after 8·len(History)+256 source
// symbols, the bound beyond which a still-unmatched process counts as
// diverged. Divergences are reported in ascending process order.
func checkSourcePrefix(out *Outcome, lb adversary.Labeled, timed bool, res *monitor.Result) {
	src := lb.New()
	h := res.History
	if !timed && len(out.Spec.Crashes) == 0 {
		for i := range h {
			sym, ok := src.Next()
			if !ok || !h[i].Equal(sym) {
				out.diverge(CheckSourcePrefix, "history is not a verbatim prefix of the source word")
				return
			}
		}
		return
	}
	n := out.Spec.N
	// next[p] is the history index of process p's next unmatched symbol:
	// len(h) once its projection is matched, -1 once it has mismatched.
	next := make([]int, n)
	open := 0
	for p := range next {
		next[p] = nextOf(h, p, 0)
		if next[p] < len(h) {
			open++
		}
	}
	for k := 8*len(h) + 256; open > 0 && k > 0; k-- {
		sym, ok := src.Next()
		if !ok {
			break
		}
		p := sym.Proc
		if p < 0 || p >= n || next[p] < 0 || next[p] == len(h) {
			continue
		}
		if !h[next[p]].Equal(sym) {
			next[p] = -1
			open--
		} else if next[p] = nextOf(h, p, next[p]+1); next[p] == len(h) {
			open--
		}
	}
	for p, i := range next {
		if i != len(h) {
			out.diverge(CheckSourcePrefix, "process %d history projection is not a prefix of the source projection", p)
		}
	}
}

// nextOf returns the index of process p's first symbol in h at or after i,
// or len(h).
func nextOf(h trace.Word, p, i int) int {
	for i < len(h) && h[i].Proc != p {
		i++
	}
	return i
}

// checkOwnSafety evaluates the per-verdict counter oracle: feed the history
// once to a WEC clause checker, recording for each process the earliest
// history index at which its own read violates WEC clause (1) (read below
// own preceding incs) or clause (2) (read below previous read) — violations
// the process fully observes itself, so any sound weak decider for the
// counter languages holds NO from there on. Then every verdict whose HistAt
// is past that index must be NO.
func checkOwnSafety(out *Outcome, res *monitor.Result) {
	n := out.Spec.N
	violAt := make([]int, n) // earliest violating history index +1, 0 = none
	c := check.NewCounter(false)
	for i, sym := range res.History {
		c.Append(sym)
		if c.Shown() != nil && violAt[sym.Proc] == 0 {
			violAt[sym.Proc] = i + 1
		}
	}
	for p := 0; p < n; p++ {
		if violAt[p] == 0 {
			continue
		}
		for k, v := range res.Verdicts[p] {
			if res.HistAt[p][k] >= violAt[p] && v != monitor.No {
				out.diverge(CheckOwnSafety,
					"process %d verdict %d is %s although its own projection violated a safety clause at history index %d",
					p, k, v, violAt[p]-1)
				break
			}
		}
	}
}

// checkClass judges the language's decidability predicate with core.Eval,
// the judge Table 1 uses: in-language runs by the source label,
// out-of-language runs by what the exhibited word shows (a run too short to
// show a violation is no divergence). The weak predicates read verdict
// tails, which is only meaningful once every process got past the sources'
// transient phases; runs whose verdict streams are too short for the window
// proxy are skipped rather than misjudged.
func (r Runner) checkClass(out *Outcome, l lang.Lang, lb adversary.Labeled, res *monitor.Result, tau *adversary.Timed) {
	class := classOf(l)
	if class == 0 { // EC_LED: undecidable in every class, no verdict oracle
		out.skipped(CheckClass)
		return
	}
	minVerdicts := 1
	if class != core.PSD {
		minVerdicts = evalWindow + 1
	}
	for p := range res.Verdicts {
		if len(res.Verdicts[p]) < minVerdicts {
			out.skipped(CheckClass)
			return
		}
	}
	out.ran(CheckClass)
	ev := core.Eval{Class: class, Judge: l.Judge}
	if tau != nil {
		ev.Sketch = core.SketchOf(res, tau.InvAt)
	}
	r.judge(out, CheckClass, class.String()+" source "+lb.Name+": ", ev, res, lb.In)
}

// judge completes ev with the explorer's window, the session's checker pool
// and x(E) = res.History, and records a failure of ev.Check(res, in) as a
// divergence of the named check, its detail after prefix. A run too short to
// judge (*core.ShortRunError) is no divergence.
func (r Runner) judge(out *Outcome, name, prefix string, ev core.Eval, res *monitor.Result, in bool) {
	ev.Window, ev.Pool, ev.Word = evalWindow, r.Session.CheckPool(), res.History
	var short *core.ShortRunError
	if err := ev.Check(res, in); err != nil && !errors.As(err, &short) {
		out.diverge(name, "%s%v", prefix, err)
	}
}

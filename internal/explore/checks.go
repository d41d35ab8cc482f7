package explore

import (
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
	// CheckClass: the family's decidability predicate (WD, PWD or PSD)
	// judged against the source label on crash-free runs — the monitor-
	// versus-oracle axis. Crashes invalidate the ω-label (dropped events
	// change membership), so crashed runs skip it.
	CheckClass = "class"
	// CheckReplay: re-executing the spec must reproduce the digest.
	CheckReplay = "replay"

	// Object-family checks (see sutrun.go):
	//
	// CheckOracle: every property the implementation guarantees must hold on
	// the exhibited history (violations of non-guaranteed properties are
	// OracleFailures — planted bugs found, not divergences).
	CheckOracle = "oracle"
	// CheckBrute: the memoized witness search must agree with the
	// exhaustive brute-force reference on small histories.
	CheckBrute = "brute"
	// CheckMonitorLin: V_O's verdict stream against the offline
	// linearizability oracle — no NO on a linearizable history, and (modulo
	// the predictive sketch escape) some NO when the drained crash-free
	// history and its sketch both violate.
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
// checks: the sequential-consistency and eventual-ledger checkers test every
// prefix with an exponential-time witness search, so unbounded histories
// would dominate a sweep. A capped check is still sound — any prefix of an
// in-language word must be clean.
const labelSafetyCap = 600

func (o *Outcome) ran(name string)     { o.Ran = append(o.Ran, name) }
func (o *Outcome) skipped(name string) { o.Skipped = append(o.Skipped, name) }

func (o *Outcome) diverge(name, format string, args ...any) {
	o.Divergences = append(o.Divergences, Divergence{Check: name, Detail: fmt.Sprintf(format, args...)})
}

// runChecks evaluates every applicable differential check, appending
// divergences and bookkeeping to the outcome.
func (r Runner) runChecks(out *Outcome, l lang.Lang, lb adversary.Labeled, fam family, res *monitor.Result, tau *adversary.Timed) {
	s := out.Spec
	crashed := len(s.Crashes) > 0

	out.ran(CheckWellFormed)
	if err := trace.WellFormed(res.History); err != nil {
		out.diverge(CheckWellFormed, "%v", err)
	}

	out.ran(CheckSourcePrefix)
	checkSourcePrefix(out, lb, fam, res)

	if fam == famWEC || fam == famSEC {
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
		if r.safetyViolated(l, prefix) {
			out.diverge(CheckLabelSafety,
				"source %s is labelled in-language but its exhibited prefix fails the %s safety checker", lb.Name, l.Name)
		}
	}

	r.checkClass(out, l, lb, fam, res, tau)
}

// checkCrashQuiet asserts a crashed process reports no verdict after its
// crash step; shared by both scenario families.
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

// checkSourcePrefix re-generates the source and compares the exhibited
// history against it: per-process projections must be prefixes of the
// source's projections, and on untimed crash-free runs the history must be a
// verbatim prefix of the source word (the cursor emits symbols in source
// order).
func checkSourcePrefix(out *Outcome, lb adversary.Labeled, fam family, res *monitor.Result) {
	src := lb.New()
	var w trace.Word
	limit := 8*len(res.History) + 256
	for len(w) < limit {
		sym, ok := src.Next()
		if !ok {
			break
		}
		w = append(w, sym)
	}
	if !fam.timed() && len(out.Spec.Crashes) == 0 {
		if len(w) < len(res.History) || !res.History.Equal(w[:len(res.History)]) {
			out.diverge(CheckSourcePrefix, "history is not a verbatim prefix of the source word")
		}
		return
	}
	for p := 0; p < out.Spec.N; p++ {
		hp := res.History.Project(p)
		sp := w.Project(p)
		if len(hp) > len(sp) || !hp.Equal(sp[:len(hp)]) {
			out.diverge(CheckSourcePrefix, "process %d history projection is not a prefix of the source projection", p)
		}
	}
}

// checkOwnSafety evaluates the per-verdict counter oracle: scan the history
// once, recording for each process the earliest history index at which its
// own projection violates WEC clause (1) (read below own preceding incs) or
// clause (2) (read below previous read) — violations the process fully
// observes itself, so any sound weak decider for the counter languages holds
// NO from there on. Then every verdict whose HistAt is past that index must
// be NO.
func checkOwnSafety(out *Outcome, res *monitor.Result) {
	n := out.Spec.N
	violAt := make([]int, n) // earliest violating history index +1, 0 = none
	incs := make([]int64, n)
	lastRead := make([]int64, n)
	hasRead := make([]bool, n)
	pendingInc := make([]bool, n)
	for i, sym := range res.History {
		p := sym.Proc
		switch {
		case sym.Kind == trace.Inv && sym.Op == trace.OpInc:
			pendingInc[p] = true
		case sym.Kind == trace.Res && sym.Op == trace.OpInc:
			if pendingInc[p] {
				incs[p]++
				pendingInc[p] = false
			}
		case sym.Kind == trace.Res && sym.Op == trace.OpRead:
			v, ok := sym.Val.(trace.Int)
			if !ok {
				continue
			}
			if violAt[p] == 0 && (int64(v) < incs[p] || (hasRead[p] && int64(v) < lastRead[p])) {
				violAt[p] = i + 1
			}
			lastRead[p] = int64(v)
			hasRead[p] = true
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

// checkClass judges the family's decidability predicate against the source
// label. The weak predicates read verdict tails, which is only meaningful
// once every process got past the sources' transient phases; runs whose
// verdict streams are too short for the window proxy are skipped rather than
// misjudged.
//
// For the predictive families the Out-side carries the escape clause of
// Definitions 6.1/6.2, mirrored from the In-side: a predictive monitor
// answers for the sketch x~(E), not for x(E), so it is excused from
// reporting a real-time-sensitive safety violation of the exhibited word
// exactly when the execution's sketch is clean — the views genuinely lost
// the real-time order that made the word violating (the explorer's random
// schedules reach these executions; the curated Table 1 schedules do not).
// No such excuse exists for violations the monitors observe without
// real-time information: liveness violations (announced counts never
// converge) and violations the sketch itself exhibits.
func (r Runner) checkClass(out *Outcome, l lang.Lang, lb adversary.Labeled, fam family, res *monitor.Result, tau *adversary.Timed) {
	n := out.Spec.N
	sketchBad := func(bad func(trace.Word) bool) bool {
		sk, err := res.Sketch(n, tau.InvAt)
		if err != nil {
			return false
		}
		return bad(sk)
	}
	cappedHistory := res.History
	if len(cappedHistory) > labelSafetyCap {
		cappedHistory = cappedHistory[:labelSafetyCap]
	}
	minVerdicts := 1
	if fam == famWEC || fam == famSEC {
		minVerdicts = evalWindow + 1
	}
	for p := 0; p < n; p++ {
		if len(res.Verdicts[p]) < minVerdicts {
			out.skipped(CheckClass)
			return
		}
	}

	switch fam {
	case famWEC:
		// WEC_COUNT is real-time oblivious: Figure 5 needs no views and has
		// no escape, so the plain WD predicate applies.
		out.ran(CheckClass)
		ev := core.Eval{Class: core.WD, Window: evalWindow}
		if err := ev.Check(res, lb.In); err != nil {
			out.diverge(CheckClass, "WD source %s: %v", lb.Name, err)
		}

	case famSEC:
		out.ran(CheckClass)
		secBad := func(w trace.Word) bool { return check.SECSafety(w) != nil }
		if lb.In {
			ev := core.Eval{Class: core.PWD, Window: evalWindow,
				SketchViolated: func() bool { return sketchBad(secBad) }}
			if err := ev.Check(res, true); err != nil {
				out.diverge(CheckClass, "PWD source %s: %v", lb.Name, err)
			}
			return
		}
		// Out-side. The label describes the source word; the monitor's
		// input is the outer word of Aτ, whose wider operation intervals
		// can legitimately repair a real-time-sensitive violation (the
		// clause-4 over-read becomes concurrent with its inc). Judge what
		// was exhibited: a safety-violating outer word must draw NO unless
		// even the sketch lost the violation; a safety-clean one only obliges
		// the monitor when it visibly fails to converge (the view-independent
		// liveness clause).
		switch {
		case secBad(res.History):
			if !sketchBad(secBad) {
				return // real-time violation invisible in the sketch: excused
			}
		case check.Converges(res.History):
			return // the exhibited word was repaired into the language
		}
		for p := 0; p < n; p++ {
			if !res.NOInTail(p, evalWindow) {
				out.diverge(CheckClass,
					"PWD source %s: exhibited word outside language (violation visible to the monitor) but process %d stopped reporting NO", lb.Name, p)
				return
			}
		}

	case famPred:
		out.ran(CheckClass)
		langBad := func(w trace.Word) bool { return r.safetyViolated(l, w) }
		if lb.In {
			ev := core.Eval{Class: core.PSD,
				SketchViolated: func() bool { return sketchBad(langBad) }}
			if err := ev.Check(res, true); err != nil {
				out.diverge(CheckClass, "PSD source %s: %v", lb.Name, err)
			}
			return
		}
		if res.TotalNO() == 0 && langBad(cappedHistory) && sketchBad(langBad) {
			out.diverge(CheckClass,
				"PSD source %s: exhibited word and sketch both violate %s safety but no process ever reported NO", lb.Name, l.Name)
		}

	default: // famECLed: undecidable in every class, no verdict oracle
		out.skipped(CheckClass)
	}
}

// Package core implements the paper's primary contribution as executable
// definitions: the decidability notions of Sections 4 and 6 — strong (Def
// 4.1), weak (Defs 4.2–4.4), predictive strong (Def 6.1) and predictive weak
// (Def 6.2) — evaluated over finite monitored executions, and the real-time
// obliviousness characterization of Section 5.2 (Definition 5.3, Theorem
// 5.2).
//
// Finite-run semantics for the ω-quantities: "NO(E,p) = 0" is literal;
// "NO(E,p) < ∞" (finitely many NOs) is read as "no NO among the process's
// last Window reports"; "NO(E,p) = ∞" as "a NO occurs among the last Window
// reports". Window is an experiment parameter; runs must be long enough that
// transient phases fit in the head.
//
// A run is labelled by its source's ω-word, but the monitors only see the
// finite word x(E) the execution exhibited. Aτ's outer word keeps an
// in-language input in the language (Lemma 6.1), yet a finite run of an
// out-of-language input need not show the violation. So Eval.Check judges an
// in-language run by its label and an out-of-language run by x(E): the run
// counts as outside the language only when x(E) violates the language's
// safety condition, or, for an eventual language, fails to converge. A run
// that shows neither is too short to judge and yields a *ShortRunError.
package core

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
)

// Stats is the view of a monitored execution the decidability predicates
// need: per-process NO counts and the finite-run tail proxy. Implemented by
// monitor.Result; declared here so the decidability core stays free of the
// runner's dependencies.
type Stats interface {
	// Procs returns the number of monitor processes.
	Procs() int
	// NOCount returns how many times process p reported NO.
	NOCount(p int) int
	// NOInTail reports whether process p reported NO among its last window
	// reports.
	NOInTail(p, window int) bool
}

// Class identifies one decidability notion of the paper.
type Class uint8

const (
	// SD is strong decidability (Definition 4.1).
	SD Class = iota + 1
	// WAD is weak-all decidability (Definition 4.2): on words in the
	// language every process reports NO finitely often; outside, some
	// process reports NO infinitely often.
	WAD
	// WOD is weak-one decidability (Definition 4.3): in the language, some
	// process reports NO finitely often; outside, every process reports NO
	// infinitely often. Theorem 4.1 proves WAD = WOD = WD.
	WOD
	// WD is weak decidability (Definition 4.4): in the language every
	// process reports NO finitely often, outside every process reports NO
	// infinitely often.
	WD
	// PSD is predictive strong decidability (Definition 6.1).
	PSD
	// PWD is predictive weak decidability (Definition 6.2).
	PWD
)

// String renders the class name as used in Table 1.
func (c Class) String() string {
	switch c {
	case SD:
		return "SD"
	case WAD:
		return "WAD"
	case WOD:
		return "WOD"
	case WD:
		return "WD"
	case PSD:
		return "PSD"
	case PWD:
		return "PWD"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Predictive reports whether c is one of the predictive notions, PSD and
// PWD, whose monitors run against the timed adversary Aτ and are judged with
// the sketch escape clause.
func (c Class) Predictive() bool { return c == PSD || c == PWD }

// Eval describes how a finite run is judged against a decidability notion.
type Eval struct {
	// Class under evaluation.
	Class Class
	// Window is the tail length used to interpret "finitely/infinitely many
	// NOs" on finite runs.
	Window int
	// Judge decides the language's safety condition, with checkers from Pool
	// (nil: fresh ones), on the exhibited word Word = x(E) and on the
	// sketch. A zero Judge shows no violation, so an out-of-language run
	// that fails the predicate is then always a *ShortRunError.
	Judge lang.Judge
	Pool  *check.Pool
	Word  trace.Word
	// Sketch builds the run's reconstructed sketch x~(E), the escape clause
	// of the predictive notions; with covered set, only from the responses
	// some verdict judged (see SketchOf). Required for PSD and PWD; ignored
	// otherwise.
	Sketch func(covered bool) (trace.Word, error)
}

// ShortRunError reports an out-of-language run whose verdicts fail the
// class's predicate but whose exhibited word x(E) shows no violation yet:
// the run is too short to judge, which is neither a pass nor a failure of
// the monitor.
type ShortRunError struct {
	Class Class
	// Len is the length of x(E).
	Len int
}

func (e *ShortRunError) Error() string {
	return fmt.Sprintf("%s undecided: the source word is outside the language, but x(E) shows no violation in %d symbols", e.Class, e.Len)
}

// Check judges the monitored execution res, whose input ω-word membership is
// in, against the decidability notion. It returns nil when the verdicts are
// consistent with the notion and a descriptive error otherwise.
//
// PSD's verdict predicate is SD's, and PWD's is WD's, up to the escape
// clause: a predictive monitor answers for the sketch x~(E), not for x(E).
// On an in-language run, its NOs are justified when the full sketch
// violates the language. On an out-of-language run, a safety violation x(E)
// shows is excused when the sketch is clean, because the views lost the
// real-time order that made the word violating. PSD then judges the sketch
// of the responses some verdict covered, since a run cut between a response
// and its round's verdict must not blame the monitor for what only that
// response shows; PWD judges the full sketch. A liveness violation (an
// eventual language's failure to converge) needs no real-time order and is
// never excused.
func (e Eval) Check(res Stats, in bool) error {
	if e.Class < SD || e.Class > PWD {
		return fmt.Errorf("core: unknown class %d", e.Class)
	}
	err := e.predicate(res, in)
	switch {
	case err == nil:
		return nil
	case !in:
		return e.shown(err)
	case !e.Class.Predictive():
		return err
	}
	bad, serr := e.sketchViolated(false)
	if serr != nil {
		return serr
	}
	if !bad {
		return fmt.Errorf("%w, and the sketch x~(E) is in the language too: the NOs have no justification", err)
	}
	return nil
}

// predicate applies the class's condition to the verdicts alone.
func (e Eval) predicate(res Stats, in bool) error {
	first := func(pred func(p int) bool) int {
		for p := 0; p < res.Procs(); p++ {
			if pred(p) {
				return p
			}
		}
		return -1
	}
	loud := first(func(p int) bool { return res.NOInTail(p, e.Window) })
	quiet := first(func(p int) bool { return !res.NOInTail(p, e.Window) })
	switch e.Class {
	case SD, PSD:
		noisy := first(func(p int) bool { return res.NOCount(p) > 0 })
		if in && noisy >= 0 {
			return fmt.Errorf("%s violated: word in language but process %d reported NO %d times", e.Class, noisy, res.NOCount(noisy))
		}
		if !in && noisy < 0 {
			return fmt.Errorf("%s violated: word outside language but no process ever reported NO", e.Class)
		}
	case WOD:
		if in && quiet < 0 {
			return fmt.Errorf("WOD violated: word in language but every process reports NO in the tail")
		}
		if !in && quiet >= 0 {
			return fmt.Errorf("WOD violated: word outside language but process %d stopped reporting NO", quiet)
		}
	default: // WAD, WD and PWD
		if in && loud >= 0 {
			return fmt.Errorf("%s violated: word in language but process %d still reports NO in the tail", e.Class, loud)
		}
		if !in && e.Class == WAD && loud < 0 {
			return fmt.Errorf("WAD violated: word outside language but every process stopped reporting NO")
		}
		if !in && e.Class != WAD && quiet >= 0 {
			return fmt.Errorf("%s violated: word outside language but process %d stopped reporting NO", e.Class, quiet)
		}
	}
	return nil
}

// shown judges an out-of-language run whose verdicts failed the predicate
// with err by what x(E) shows: err if it shows a violation the monitor must
// answer for, nil if the sketch excuses it, a *ShortRunError if it shows
// none.
func (e Eval) shown(err error) error {
	if e.Judge.Violation(e.Word, e.Pool) != nil {
		if !e.Class.Predictive() {
			return err
		}
		bad, serr := e.sketchViolated(e.Class == PSD)
		if serr != nil {
			return serr
		}
		if bad {
			return err
		}
		return nil // the views lost the real-time order that made x(E) violate
	}
	if converged, ok := e.Judge.Converges(e.Word); ok && !converged {
		return err
	}
	return &ShortRunError{Class: e.Class, Len: len(e.Word)}
}

// sketchViolated reports whether the run's sketch (covered: of the judged
// responses only) fails the judge. A sketch that cannot be built shows no
// violation.
func (e Eval) sketchViolated(covered bool) (bool, error) {
	if e.Sketch == nil {
		return false, fmt.Errorf("%s evaluation requires a sketch check", e.Class)
	}
	sk, err := e.Sketch(covered)
	return err == nil && e.Judge.Violation(sk, e.Pool) != nil, nil
}

// SketchOf returns the Sketch of res, a run against Aτ whose InvAt is
// resolve. The covered sketch keeps the first len(Verdicts[p]) responses of
// each process p: a response is recorded before its round's verdict, so a
// run cut between the two leaves each process at most one response no
// verdict has judged yet.
func SketchOf(res *trace.Result, resolve trace.Resolver) func(covered bool) (trace.Word, error) {
	return func(covered bool) (trace.Word, error) {
		if !covered {
			return res.Sketch(res.Procs(), resolve)
		}
		cut := *res
		cut.Responses = make([][]trace.Response, len(res.Responses))
		for p, rs := range res.Responses {
			cut.Responses[p] = rs[:min(len(rs), len(res.Verdicts[p]))]
		}
		return cut.Sketch(res.Procs(), resolve)
	}
}

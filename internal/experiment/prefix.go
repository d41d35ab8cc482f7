package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// The prefix-extension attack of Lemmas 5.2 and 6.2: run the monitor on a
// behaviour outside the language until some process first reports NO, cut
// the behaviour at everything the adversary had revealed by that moment, and
// extend the cut with a continuation that puts the whole word inside the
// language. Replaying deterministically, the execution — and the NO — is
// unchanged up to the cut, so the monitor has reported NO on a word in the
// language: strong decidability fails. The tight variant runs against the
// timed adversary Aτ with the canonical (tight) schedule, for which the
// sketch x~(E) equals the input x(E); the predictive escape clause of
// Definition 6.1 then cannot justify the NO, so predictive strong
// decidability fails too.

// PrefixAttack describes one attack instance.
type PrefixAttack struct {
	// N is the number of processes.
	N int
	// Bad is a finite prefix of a behaviour outside the language, long
	// enough that the monitor reports NO within it.
	Bad trace.Word
	// GoodTail completes the cut prefix into a word inside the language: it
	// receives the cut (which may end with pending invocations) and returns
	// the continuation symbols. The concatenation's ω-extension must be in
	// the language; the attack appends Rounds repetitions via the same
	// callback contract the paper's x′ uses.
	GoodTail func(cut trace.Word) trace.Word
}

// PrefixAttackResult carries the attack's machine-checked facts.
type PrefixAttackResult struct {
	// NoProc is the process that first reported NO; NoStep the scheduler
	// step; Cut how many source symbols the adversary had consumed.
	NoProc, NoStep, Cut int
	// Hybrid is the in-language word exhibited by the replay.
	Hybrid trace.Word
	// ReplayNO reports that the replay reproduced a NO by NoProc with the
	// same observation prefix (deterministic replay check).
	ReplayNO bool
	// PrefixesMatch reports that NoProc's observations up to the NO verdict
	// are identical in both runs.
	PrefixesMatch bool
	// TightSketch is set by the timed variant: the replay's sketch equals
	// its input, closing the predictive escape clause.
	TightSketch bool
	// BadRun and HybridRun are the two executions.
	BadRun, HybridRun *monitor.Result
}

// firstNO locates the earliest NO report across all processes, returning the
// process, its report index, the scheduler step and the source-consumption
// mark. ok is false when no process ever reported NO.
func firstNO(res *monitor.Result) (proc, idx, step, pulled int, ok bool) {
	step = -1
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			if v != monitor.No {
				continue
			}
			if step < 0 || res.StepAt[p][k] < step {
				proc, idx, step, pulled = p, k, res.StepAt[p][k], res.PulledAt[p][k]
			}
			break // only the first NO of each process matters
		}
	}
	return proc, idx, step, pulled, step >= 0
}

// prefixesMatch reports whether process p's observations in two runs —
// invocations, responses with their identifiers and views, and verdicts —
// coincide up to and including report index idx.
func prefixesMatch(a, b *monitor.Result, p, idx int) bool {
	cut := func(res *monitor.Result) (Observations, bool) {
		o := Observe(res, p)
		if len(o.Verdicts) <= idx {
			return Observations{}, false
		}
		return Observations{Invs: o.Invs[:idx+1], Responses: o.Responses[:idx+1], Verdicts: o.Verdicts[:idx+1]}, true
	}
	oa, okA := cut(a)
	ob, okB := cut(b)
	return okA && okB && oa.Equal(ob)
}

// Run mounts the attack on a monitor against the plain adversary A, using
// the canonical tight schedule for determinism (the construction of Claim
// 3.1, as in the proof of Lemma 5.2).
func (a PrefixAttack) Run(m monitor.Monitor) (*PrefixAttackResult, error) {
	return a.mount("prefix attack", func(w trace.Word) (*monitor.Result, *adversary.Timed, error) {
		res, err := ScheduledRun(m, a.N, w, Canonical(w, a.N))
		return res, nil, err
	})
}

// RunTimed mounts the attack against the timed adversary Aτ (Lemma 6.2): the
// canonical schedule produces tight executions, for which x(E) = x~(E), so a
// NO on the in-language hybrid word has no sketch justification.
func (a PrefixAttack) RunTimed(mk func(tau *adversary.Timed) monitor.Monitor, kind adversary.ArrayKind) (*PrefixAttackResult, error) {
	return a.mount("prefix attack (timed)", func(w trace.Word) (*monitor.Result, *adversary.Timed, error) {
		return ScheduledTimedRun(mk, a.N, w, kind, Canonical(w, a.N))
	})
}

// mount runs the attack with run executing a word on the canonical
// schedule; what prefixes the errors. When run returns Aτ, the result also
// records whether the hybrid execution is tight.
func (a PrefixAttack) mount(what string, run func(trace.Word) (*monitor.Result, *adversary.Timed, error)) (*PrefixAttackResult, error) {
	badRes, tau, err := run(a.Bad)
	if err != nil {
		return nil, fmt.Errorf("%s bad run: %w", what, err)
	}
	noProc, noIdx, noStep, cut, ok := firstNO(badRes)
	if !ok {
		shown := " " + a.Bad.String() // only the untimed message names the word
		if tau != nil {
			shown = ""
		}
		return nil, fmt.Errorf("%s: the monitor never reported NO on the bad behaviour%s — it already fails soundness", what, shown)
	}
	prefix := a.Bad[:cut].Clone()
	hybrid := append(prefix, a.GoodTail(prefix)...)
	hybRes, tau, err := run(hybrid)
	if err != nil {
		return nil, fmt.Errorf("%s hybrid run: %w", what, err)
	}
	res := &PrefixAttackResult{
		NoProc: noProc, NoStep: noStep, Cut: cut,
		Hybrid:        hybRes.History,
		BadRun:        badRes,
		HybridRun:     hybRes,
		PrefixesMatch: prefixesMatch(badRes, hybRes, noProc, noIdx),
		ReplayNO:      len(hybRes.Verdicts[noProc]) > noIdx && hybRes.Verdicts[noProc][noIdx] == monitor.No,
	}
	if tau != nil {
		res.TightSketch = tight(hybRes, a.N, tau)
	}
	return res, nil
}

// tight reports whether a run against Aτ is tight: its sketch x~(E) equals
// its input x(E), which closes the predictive escape clause.
func tight(res *monitor.Result, n int, tau *adversary.Timed) bool {
	sk, err := res.Sketch(n, tau.InvAt)
	return err == nil && sk.Equal(res.History)
}

// Verify converts an attack result into a pass/fail judgement for the
// untimed attack: nil means the impossibility was demonstrated. The hybrid
// word stands in for an in-language ω-word when no prefix violates the
// counter language's judge and it converges.
func (r *PrefixAttackResult) Verify(j lang.Judge) error {
	if !r.ReplayNO {
		return fmt.Errorf("prefix attack: replay lost the NO — execution not deterministic up to the cut")
	}
	if !r.PrefixesMatch {
		return fmt.Errorf("prefix attack: observation prefixes diverged before the NO")
	}
	if converged, _ := j.Converges(r.Hybrid); !converged || j.Violation(r.Hybrid, nil) != nil {
		return fmt.Errorf("prefix attack: hybrid word is not in the language — the GoodTail construction is wrong")
	}
	return nil
}

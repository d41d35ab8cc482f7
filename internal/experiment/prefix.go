package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
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

// observationsPrefixEqual compares process p's observations in two runs up
// to and including report index idx.
func observationsPrefixEqual(a, b *monitor.Result, p, idx int) bool {
	if len(b.Verdicts[p]) <= idx || len(a.Verdicts[p]) <= idx {
		return false
	}
	for k := 0; k <= idx; k++ {
		if a.Verdicts[p][k] != b.Verdicts[p][k] {
			return false
		}
		if !a.Invs[p][k].Equal(b.Invs[p][k]) || !a.Responses[p][k].Sym.Equal(b.Responses[p][k].Sym) {
			return false
		}
	}
	return true
}

// Run mounts the attack on a monitor against the plain adversary A, using
// the canonical tight schedule for determinism (the construction of Claim
// 3.1, as in the proof of Lemma 5.2).
func (a PrefixAttack) Run(m monitor.Monitor) (*PrefixAttackResult, error) {
	badRes, err := ScheduledRun(m, a.N, a.Bad, Canonical(a.Bad, a.N))
	if err != nil {
		return nil, fmt.Errorf("prefix attack bad run: %w", err)
	}
	noProc, noIdx, noStep, cut, ok := firstNO(badRes)
	if !ok {
		return nil, fmt.Errorf("prefix attack: the monitor never reported NO on the bad behaviour %v — it already fails soundness", a.Bad)
	}
	prefix := a.Bad[:cut].Clone()
	hybrid := append(prefix, a.GoodTail(prefix)...)
	hybRes, err := ScheduledRun(m, a.N, hybrid, Canonical(hybrid, a.N))
	if err != nil {
		return nil, fmt.Errorf("prefix attack hybrid run: %w", err)
	}
	res := &PrefixAttackResult{
		NoProc: noProc, NoStep: noStep, Cut: cut,
		Hybrid:    hybRes.History,
		BadRun:    badRes,
		HybridRun: hybRes,
	}
	res.PrefixesMatch = observationsPrefixEqual(badRes, hybRes, noProc, noIdx)
	res.ReplayNO = len(hybRes.Verdicts[noProc]) > noIdx && hybRes.Verdicts[noProc][noIdx] == monitor.No
	return res, nil
}

// RunTimed mounts the attack against the timed adversary Aτ (Lemma 6.2): the
// canonical schedule produces tight executions, for which x(E) = x~(E), so a
// NO on the in-language hybrid word has no sketch justification.
func (a PrefixAttack) RunTimed(mk func(tau *adversary.Timed) monitor.Monitor, kind adversary.ArrayKind) (*PrefixAttackResult, error) {
	badRes, _, err := ScheduledTimedRun(mk, a.N, a.Bad, kind, Canonical(a.Bad, a.N))
	if err != nil {
		return nil, fmt.Errorf("prefix attack (timed) bad run: %w", err)
	}
	noProc, noIdx, noStep, cut, ok := firstNO(badRes)
	if !ok {
		return nil, fmt.Errorf("prefix attack (timed): the monitor never reported NO on the bad behaviour — it already fails soundness")
	}
	prefix := a.Bad[:cut].Clone()
	hybrid := append(prefix, a.GoodTail(prefix)...)
	hybRes, tau, err := ScheduledTimedRun(mk, a.N, hybrid, kind, Canonical(hybrid, a.N))
	if err != nil {
		return nil, fmt.Errorf("prefix attack (timed) hybrid run: %w", err)
	}
	res := &PrefixAttackResult{
		NoProc: noProc, NoStep: noStep, Cut: cut,
		Hybrid:    hybRes.History,
		BadRun:    badRes,
		HybridRun: hybRes,
	}
	res.PrefixesMatch = observationsPrefixEqual(badRes, hybRes, noProc, noIdx)
	res.ReplayNO = len(hybRes.Verdicts[noProc]) > noIdx && hybRes.Verdicts[noProc][noIdx] == monitor.No
	if sk, err := hybRes.Sketch(a.N, tau.InvAt); err == nil {
		res.TightSketch = sk.Equal(hybRes.History)
	}
	return res, nil
}

// Verify converts an attack result into a pass/fail judgement for the
// untimed attack: nil means the impossibility was demonstrated.
func (r *PrefixAttackResult) Verify(inLang func(trace.Word) bool) error {
	if !r.ReplayNO {
		return fmt.Errorf("prefix attack: replay lost the NO — execution not deterministic up to the cut")
	}
	if !r.PrefixesMatch {
		return fmt.Errorf("prefix attack: observation prefixes diverged before the NO")
	}
	if !inLang(r.Hybrid) {
		return fmt.Errorf("prefix attack: hybrid word is not in the language — the GoodTail construction is wrong")
	}
	return nil
}

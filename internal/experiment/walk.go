package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/monitor"
)

// The shuffle walk realizes the proof of Theorem 5.2 (via Claim 5.1): given a
// finite prefix α that is safety-consistent with a language and a shuffle α′
// of α's projections that violates it, the walk drags α to α′ one adjacent
// transposition at a time. Every transposition is justified by an execution
// triple (E, F, E″):
//
//	E  — the canonical execution exhibiting the current word;
//	F  — the same word with one process's computation block moved earlier:
//	     the inputs x(E) = x(F) coincide, so any decidability predicate P
//	     judges E and F identically (they exhibit the same behaviour);
//	E″ — F's schedule with the two adjacent symbols emitted in the opposite
//	     order: F ≡ E″ (identical per-process observations), so the verdicts
//	     coincide, yet x(E″) is the transposed word.
//
// Chaining the triples links the verdict behaviour on α to that on α′ even
// though membership differs — the contradiction that proves every
// P-decidable language real-time oblivious.

// WalkStep records the machine-checked facts of one transposition.
type WalkStep struct {
	// From and To are the words before and after the transposition; To is
	// From with the symbols at Pos and Pos+1 swapped.
	From, To trace.Word
	// Pos is the index of the transposed pair.
	Pos int
	// InputsEqual reports x(E) == x(F).
	InputsEqual bool
	// FEquivE2 reports F ≡ E″ (all processes observed identical streams).
	FEquivE2 bool
	// DiffProc is the first process distinguishing F from E″, or −1.
	DiffProc int
}

// Walk is the full chained construction.
type Walk struct {
	// Alpha is the start prefix (safety-consistent).
	Alpha trace.Word
	// Target is the violating shuffle.
	Target trace.Word
	// Steps are the verified transpositions, in order.
	Steps []WalkStep
}

// transpositionChain returns the sequence of adjacent-transposition positions
// that transforms from into to, where to is a shuffle of from's per-process
// projections. It bubbles the symbol required at each position leftward.
// Positions refer to the evolving word.
func transpositionChain(from, to trace.Word) ([]int, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("experiment: shuffle length mismatch %d vs %d", len(from), len(to))
	}
	cur := from.Clone()
	var chain []int
	for i := range to {
		// Find to[i] in cur[i:]: the first symbol equal to it that preserves
		// per-process order (the first occurrence works because projections
		// agree).
		j := -1
		for k := i; k < len(cur); k++ {
			if cur[k].Equal(to[i]) {
				j = k
				break
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("experiment: %v is not a shuffle companion of the word (symbol %v missing)", to, to[i])
		}
		for ; j > i; j-- {
			if cur[j-1].Proc == cur[j].Proc {
				return nil, fmt.Errorf("experiment: transposition at %d would swap two symbols of process %d — target is not a projection-preserving shuffle", j-1, cur[j-1].Proc)
			}
			cur[j-1], cur[j] = cur[j], cur[j-1]
			chain = append(chain, j-1)
		}
	}
	return chain, nil
}

// moveBlockBack returns the canonical schedule of w with the block of the
// symbol at pos+1 moved before the block of the symbol at pos — the F
// construction of Claim 5.1. The canonical schedule is [B(s0) E(s0) B(s1)
// E(s1) …]; entries 2k/2k+1 belong to symbol k.
func moveBlockBack(w trace.Word, n, pos int) Schedule {
	sch := Canonical(w, n)
	// Items: block of w[pos] at 2pos, emit at 2pos+1, block of w[pos+1] at
	// 2pos+2, emit at 2pos+3. Move item 2pos+2 before 2pos.
	moved := sch[2*pos+2]
	out := make(Schedule, 0, len(sch))
	out = append(out, sch[:2*pos]...)
	out = append(out, moved)                 // B(p_i) first
	out = append(out, sch[2*pos:2*pos+2]...) // then B(p_j) E(v)
	out = append(out, sch[2*pos+3:]...)      // then E(v′) and the rest
	return out
}

// swapEmits returns the schedule with the Emit annotations of the two
// adjacent symbols swapped, matching the transposed word's emission order.
func swapEmits(sch Schedule, pos int) Schedule {
	// After moveBlockBack the layout around the pair is:
	// … B(p_i) B(p_j) E(v) E(v′) … with E(v) at index 2pos+2 and E(v′) at
	// 2pos+3.
	out := append(Schedule(nil), sch...)
	out[2*pos+2], out[2*pos+3] = out[2*pos+3], out[2*pos+2]
	return out
}

// transpose returns w with positions pos and pos+1 swapped.
func transpose(w trace.Word, pos int) trace.Word {
	out := w.Clone()
	out[pos], out[pos+1] = out[pos+1], out[pos]
	return out
}

// RunWalk performs the full walk from alpha to target against the monitor,
// verifying every triple. It fails fast on the first construction error or
// unverified fact.
func RunWalk(m monitor.Monitor, n int, alpha, target trace.Word) (*Walk, error) {
	chain, err := transpositionChain(alpha, target)
	if err != nil {
		return nil, err
	}
	walk := &Walk{Alpha: alpha.Clone(), Target: target.Clone()}
	cur := alpha.Clone()
	for _, pos := range chain {
		step, err := runWalkStep(m, n, cur, pos)
		if err != nil {
			return nil, fmt.Errorf("walk step at %d over %v: %w", pos, cur, err)
		}
		walk.Steps = append(walk.Steps, *step)
		if !step.InputsEqual {
			return walk, fmt.Errorf("walk step at %d: x(E) ≠ x(F), the block move changed the input", pos)
		}
		if !step.FEquivE2 {
			return walk, fmt.Errorf("walk step at %d: F ≢ E″ (process %d distinguishes them)", pos, step.DiffProc)
		}
		cur = step.To
	}
	if !cur.Equal(target) {
		return walk, fmt.Errorf("walk ended at %v, not the target %v", cur, target)
	}
	return walk, nil
}

// runWalkStep builds and checks one (E, F, E″) triple.
func runWalkStep(m monitor.Monitor, n int, w trace.Word, pos int) (*WalkStep, error) {
	if w[pos].Proc == w[pos+1].Proc {
		return nil, fmt.Errorf("experiment: cannot transpose two symbols of process %d", w[pos].Proc)
	}
	resE, err := ScheduledRun(m, n, w, Canonical(w, n))
	if err != nil {
		return nil, fmt.Errorf("execution E: %w", err)
	}
	schF := moveBlockBack(w, n, pos)
	resF, err := ScheduledRun(m, n, w, schF)
	if err != nil {
		return nil, fmt.Errorf("execution F: %w", err)
	}
	w2 := transpose(w, pos)
	resE2, err := ScheduledRun(m, n, w2, swapEmits(schF, pos))
	if err != nil {
		return nil, fmt.Errorf("execution E″: %w", err)
	}
	equiv, diff := Indistinguishable(resF, resE2)
	return &WalkStep{
		From:        w.Clone(),
		To:          w2,
		Pos:         pos,
		InputsEqual: resE.History.Equal(resF.History),
		FEquivE2:    equiv,
		DiffProc:    diff,
	}, nil
}

package sched

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/drv-go/drv/internal/lazyrand"
)

// RoundRobin returns a fair policy that cycles through runnable actors in
// ascending ID order. Fairness matters: the decidability definitions of
// Section 4 quantify over fair executions, in which every process takes
// infinitely many steps.
func RoundRobin() Policy { return &roundRobin{last: -1} }

type roundRobin struct {
	last int
}

func (p *roundRobin) Next(runnable []int, _ int) int {
	for _, id := range runnable {
		if id > p.last {
			p.last = id
			return id
		}
	}
	p.last = runnable[0]
	return runnable[0]
}

// Random returns a seeded uniformly random policy. Uniform choice over
// runnable actors is fair with probability one, and the seed makes every
// execution replayable.
func Random(seed int64) Policy { return RandomFrom(newRand(seed)) }

// RandomFrom is Random drawing from rng, which the policy owns for the run:
// a caller that reseeds one rng per run (rng.Seed) gets Random(seed)'s
// schedule without building a source.
func RandomFrom(rng *rand.Rand) Policy { return &randomPolicy{rng: rng} }

// newRand returns a rand.Rand over a lazyrand source seeded with seed.
func newRand(seed int64) *rand.Rand { return rand.New(lazyrand.NewSource(seed)) }

type randomPolicy struct {
	rng *rand.Rand
}

func (p *randomPolicy) Next(runnable []int, _ int) int {
	return runnable[p.rng.Intn(len(runnable))]
}

// Biased returns a seeded policy that picks the given actor whenever it is
// runnable with probability bias, otherwise uniformly among the rest. Used to
// control how eagerly the adversary's word cursor advances relative to the
// monitor's memory steps — the knob that turns "almost synchronous"
// executions (Lemma 5.1) into heavily skewed ones.
func Biased(seed int64, actor int, bias float64) Policy {
	return BiasedFrom(newRand(seed), actor, bias)
}

// BiasedFrom is Biased drawing from rng (see RandomFrom).
func BiasedFrom(rng *rand.Rand, actor int, bias float64) Policy {
	return &biasedPolicy{rng: rng, actor: actor, bias: bias}
}

type biasedPolicy struct {
	rng   *rand.Rand
	actor int
	bias  float64
}

func (p *biasedPolicy) Next(runnable []int, _ int) int {
	idx := -1
	for i, id := range runnable {
		if id == p.actor {
			idx = i
			break
		}
	}
	if idx >= 0 && p.rng.Float64() < p.bias {
		return p.actor
	}
	if idx >= 0 && len(runnable) > 1 {
		// Choose uniformly among the others.
		k := p.rng.Intn(len(runnable) - 1)
		if k >= idx {
			k++
		}
		return runnable[k]
	}
	return runnable[p.rng.Intn(len(runnable))]
}

// PolicyFunc adapts a plain function to the Policy interface, the hook that
// lets scenario explorers plug in custom randomized policies without a new
// named type per experiment.
type PolicyFunc func(runnable []int, step int) int

// Next implements Policy.
func (f PolicyFunc) Next(runnable []int, step int) int { return f(runnable, step) }

// BurstyFrom returns a policy drawing from rng (see RandomFrom) that sticks
// with one actor for a geometric burst (mean length mean ≥ 1) before picking
// a new one uniformly at random. Bursts produce the heavily skewed
// interleavings — one process racing far ahead while the others are frozen —
// that uniform choice almost never samples, yet remain fair with probability
// one since every actor is re-drawn infinitely often.
func BurstyFrom(rng *rand.Rand, mean int) Policy {
	if mean < 1 {
		mean = 1
	}
	cur := -1
	return PolicyFunc(func(runnable []int, _ int) int {
		if cur >= 0 && slices.Contains(runnable, cur) && rng.Float64() < 1-1/float64(mean) {
			return cur
		}
		cur = runnable[rng.Intn(len(runnable))]
		return cur
	})
}

// Script returns a policy that follows an explicit actor sequence and then
// delegates to fallback. The proof constructions (Lemma 5.1's executions E
// and F, Claim 3.1's sequential execution) are scripts: each entry must be
// runnable when consumed, and the policy panics otherwise, because a
// non-runnable entry means the experiment driver mis-translated the proof.
func Script(seq []int, fallback Policy) Policy {
	return &scriptPolicy{seq: seq, fallback: fallback}
}

type scriptPolicy struct {
	seq      []int
	pos      int
	fallback Policy
}

func (p *scriptPolicy) Next(runnable []int, step int) int {
	if p.pos < len(p.seq) {
		id := p.seq[p.pos]
		p.pos++
		if !slices.Contains(runnable, id) {
			panic(fmt.Sprintf("sched: script step %d requires actor %d but runnable=%v", p.pos-1, id, runnable))
		}
		return id
	}
	return p.fallback.Next(runnable, step)
}

// Prioritize returns a policy that always schedules the given actor when
// runnable and otherwise delegates. Claim 3.1's sequential executions use
// this with the adversary cursor: the word advances whenever it can, and
// processes run wait-free blocks in between.
func Prioritize(actor int, fallback Policy) Policy {
	return &priorityPolicy{actor: actor, fallback: fallback}
}

type priorityPolicy struct {
	actor    int
	fallback Policy
}

func (p *priorityPolicy) Next(runnable []int, step int) int {
	if slices.Contains(runnable, p.actor) {
		return p.actor
	}
	return p.fallback.Next(runnable, step)
}

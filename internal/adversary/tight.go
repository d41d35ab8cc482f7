package adversary

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
)

// TightPolicy drives an execution in which every process performs its
// Lines 01–03 (including Aτ's announcement) immediately before its send
// event, and its Lines 04–07 (snapshot and local reporting) immediately after
// its receive event, with no interleaving — the "tight" executions of the
// proofs of Lemmas 6.2 and 6.5, whose defining property is that the input
// equals its sketch: x(E) = x~(E). The policy follows the adversary's word
// order, running the owner of the next symbol up to the matching gate,
// emitting, and draining the owner after each delivery.
type TightPolicy struct {
	adv      *A
	cursor   int
	fallback sched.Policy
	draining int
}

var _ sched.Policy = (*TightPolicy)(nil)

// NewTightPolicy builds a tight policy for the adversary registered as the
// given cursor actor. The fallback schedules whatever remains after the word
// is exhausted (draining final reports).
func NewTightPolicy(adv *A, cursor int, fallback sched.Policy) *TightPolicy {
	return &TightPolicy{adv: adv, cursor: cursor, fallback: fallback, draining: -1}
}

// Next implements sched.Policy.
func (t *TightPolicy) Next(runnable []int, step int) int {
	if t.draining >= 0 {
		id := t.draining
		if idContained(runnable, id) && !t.adv.WaitingSend(id) {
			return id
		}
		t.draining = -1
	}
	s, ok := t.adv.Peek()
	if !ok {
		return t.fallback.Next(runnable, step)
	}
	owner := s.Proc
	switch s.Kind {
	case trace.Inv:
		if t.adv.WaitingSend(owner) {
			return t.cursor
		}
	case trace.Res:
		if t.adv.WaitingRecv(owner) {
			t.draining = owner
			return t.cursor
		}
	}
	if idContained(runnable, owner) {
		return owner
	}
	// The owner is blocked on something other than the word (should not
	// happen in well-formed setups); let the fallback make progress.
	return t.fallback.Next(runnable, step)
}

func idContained(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Peek returns the next unemitted symbol of the adversary's word without
// consuming it.
func (a *A) Peek() (trace.Symbol, bool) {
	if len(a.queue) == 0 && !a.pull() {
		return trace.Symbol{}, false
	}
	return a.queue[0], true
}

// Package experiment implements the paper's proofs as executable,
// machine-checked constructions. Possibility cells of Table 1 run the
// concrete monitors of Figures 5, 8 and 9 against labelled behaviours and
// judge them with the decidability predicates of package core. Impossibility
// cells are reproduced constructively: the experiments build the exact
// execution pairs from the proofs — indistinguishable to every process yet
// exhibiting words with different language membership — run real monitors on
// both, and verify that the recorded per-process observation streams are
// identical, so the verdict streams coincide and the claimed decidability
// predicate cannot hold. Each ✗ cell reports its witness words.
//
// The constructions are:
//
//   - Lemma 5.1: the almost-synchronous write/read swap for LIN_REG and
//     SC_REG (lemma51.go).
//   - Lemma 5.2 / Lemma 6.2: the prefix-extension attack that turns any
//     early NO into a false negative on an in-language continuation
//     (prefix.go), with the tight-execution variant closing the predictive
//     escape clause.
//   - Theorem 5.2: the shuffle walk — a chain of execution triples realizing
//     Claim 5.1, dragging a safety-consistent prefix to a violating shuffle
//     one transposition at a time (walk.go).
//   - Lemma 6.5: the adaptive alternation attack on the eventually
//     consistent ledger (lemma65.go).
//   - Table 1: the 7×4 harness assembling all of the above (table1.go).
package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// ItemKind distinguishes schedule items.
type ItemKind uint8

const (
	// Block schedules a process until it parks at an un-granted adversary
	// gate (or exits): the process performs all its pending local and
	// shared-memory computation.
	Block ItemKind = iota + 1
	// Emit schedules the adversary cursor for one step: the next symbol of
	// the word is emitted, which is the corresponding send or receive event.
	Emit
)

// Item is one element of an execution schedule.
type Item struct {
	Kind ItemKind
	// Proc is the process to block (Block), or the expected owner of the
	// emitted symbol (Emit) — verified at run time so construction bugs
	// cannot silently produce a different execution than intended.
	Proc int
}

// String renders the item compactly, e.g. "B0" or "E1".
func (it Item) String() string {
	switch it.Kind {
	case Block:
		return fmt.Sprintf("B%d", it.Proc)
	case Emit:
		return fmt.Sprintf("E%d", it.Proc)
	}
	return "?"
}

// Schedule is a fully explicit execution plan: the sequence of process
// blocks and cursor emissions that realizes one of the proofs' executions.
type Schedule []Item

// Canonical returns the schedule that realizes the word in the most
// sequential way, as in the proof of Claim 3.1: before every symbol its
// owner runs to its gate, then the symbol is emitted; trailing blocks let
// every process finish. The resulting execution is tight — each process
// executes its send and receive phases with no other symbols in between
// except those the word itself interleaves.
func Canonical(w trace.Word, n int) Schedule {
	sch := make(Schedule, 0, 2*len(w)+n)
	for _, s := range w {
		sch = append(sch, Item{Block, s.Proc}, Item{Emit, s.Proc})
	}
	for p := 0; p < n; p++ {
		sch = append(sch, Item{Block, p})
	}
	return sch
}

// director is the policy used by scheduled runs: it always picks the target
// actor, which the driver guarantees is runnable.
type director struct{ target int }

func (d *director) Next([]int, int) int { return d.target }

// ScheduledRun executes the monitor against the plain adversary A exhibiting
// w, with every step placed by the schedule. It returns the run result and
// an error if the schedule was inconsistent with the word (an Emit whose
// symbol owner mismatched or whose owner was not parked at the right gate).
func ScheduledRun(m monitor.Monitor, n int, w trace.Word, sch Schedule) (*monitor.Result, error) {
	adv := adversary.NewA(n, adversary.NewScriptSource(w))
	return scheduledRun(m, n, adv, func(rt *sched.Runtime) (adversary.Service, []int) {
		return adv, []int{adv.Register(rt)}
	}, sch)
}

// ScheduledTimedRun is ScheduledRun against the timed adversary Aτ wrapping
// A. The returned Timed service gives access to views and the inner history.
func ScheduledTimedRun(mk func(tau *adversary.Timed) monitor.Monitor, n int, w trace.Word, kind adversary.ArrayKind, sch Schedule) (*monitor.Result, *adversary.Timed, error) {
	adv := adversary.NewA(n, adversary.NewScriptSource(w))
	tau := adversary.NewTimed(n, adv, kind)
	res, err := scheduledRun(mk(tau), n, adv, func(rt *sched.Runtime) (adversary.Service, []int) {
		return tau, []int{adv.Register(rt)}
	}, sch)
	return res, tau, err
}

func scheduledRun(m monitor.Monitor, n int, adv *adversary.A, newSvc func(rt *sched.Runtime) (adversary.Service, []int), sch Schedule) (*monitor.Result, error) {
	dir := &director{}
	var cursorID int
	var schedErr error
	res := monitor.Run(monitor.Config{
		N:       n,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			svc, aux := newSvc(rt)
			cursorID = aux[0]
			return svc, aux
		},
		Policy: func([]int) sched.Policy { return dir },
		Drive: func(rt *sched.Runtime) {
			parked := func(p int) bool {
				return adv.WaitingSend(p) || adv.WaitingRecv(p)
			}
			for k, it := range sch {
				switch it.Kind {
				case Block:
					for !parked(it.Proc) && !rt.Exited(it.Proc) {
						dir.target = it.Proc
						if !rt.Step() {
							schedErr = fmt.Errorf("experiment: runtime stalled at schedule item %d (%v)", k, it)
							return
						}
					}
				case Emit:
					next, ok := adv.Peek()
					if !ok {
						schedErr = fmt.Errorf("experiment: schedule item %d (%v) emits but the word is exhausted", k, it)
						return
					}
					if next.Proc != it.Proc {
						schedErr = fmt.Errorf("experiment: schedule item %d expects a symbol of process %d but the word's next symbol is %v", k, it.Proc, next)
						return
					}
					if (next.Kind == trace.Inv && !adv.WaitingSend(next.Proc)) ||
						(next.Kind == trace.Res && !adv.WaitingRecv(next.Proc)) {
						schedErr = fmt.Errorf("experiment: schedule item %d emits %v but its owner is not parked at the matching gate", k, next)
						return
					}
					dir.target = cursorID
					if !rt.Step() {
						schedErr = fmt.Errorf("experiment: runtime stalled emitting at schedule item %d", k)
						return
					}
				}
			}
		},
	})
	if schedErr != nil {
		return nil, schedErr
	}
	return res, nil
}

// Observations is the complete view one process has of an execution: the
// invocations it sent, the responses (with identifiers and views) it
// received, and the verdicts it reported. Two executions are
// indistinguishable to a process exactly when its Observations coincide —
// deterministic monitors then necessarily report the same verdicts.
type Observations struct {
	Invs      []trace.Symbol
	Responses []trace.Response
	Verdicts  []monitor.Verdict
}

// Observe extracts process p's observations from a run.
func Observe(res *monitor.Result, p int) Observations {
	return Observations{
		Invs:      res.Invs[p],
		Responses: res.Responses[p],
		Verdicts:  res.Verdicts[p],
	}
}

// Equal reports whether two observation streams are identical.
func (o Observations) Equal(q Observations) bool {
	if len(o.Invs) != len(q.Invs) || len(o.Responses) != len(q.Responses) || len(o.Verdicts) != len(q.Verdicts) {
		return false
	}
	for i := range o.Invs {
		if !o.Invs[i].Equal(q.Invs[i]) {
			return false
		}
	}
	for i := range o.Responses {
		a, b := o.Responses[i], q.Responses[i]
		if !a.Sym.Equal(b.Sym) || a.ID != b.ID {
			return false
		}
		switch {
		case a.View == nil && b.View == nil:
		case a.View == nil || b.View == nil:
			return false
		default:
			if !a.View.Equal(*b.View) {
				return false
			}
		}
	}
	for i := range o.Verdicts {
		if o.Verdicts[i] != q.Verdicts[i] {
			return false
		}
	}
	return true
}

// Indistinguishable reports whether two runs are indistinguishable to every
// process (E ≡ F): all per-process observation streams coincide. firstDiff
// names the first differing process, or −1.
func Indistinguishable(a, b *monitor.Result) (ok bool, firstDiff int) {
	n := len(a.Verdicts)
	if len(b.Verdicts) != n {
		return false, 0
	}
	for p := 0; p < n; p++ {
		if !Observe(a, p).Equal(Observe(b, p)) {
			return false, p
		}
	}
	return true, -1
}

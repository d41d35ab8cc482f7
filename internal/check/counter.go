package check

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
)

// Violation describes why a safety check failed, pointing at the offending
// operation.
type Violation struct {
	Op     trace.Operation
	Reason string
}

// String renders the violation; Violation is used as a report, not an error
// value, but a readable rendering helps experiment logs.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Op, v.Reason)
}

// A Fault is a clause checker's record of a failed clause: At is the index
// of the symbol that showed it, counting from the checker's first symbol,
// and Reason names the clause.
type Fault struct {
	At     int
	Reason string
}

// In names the operation the faulting symbol belongs to in w, the word the
// checker was fed: a response completes its operation, and an invocation
// leaves it pending unless w holds its response.
func (f *Fault) In(w trace.Word) *Violation {
	for _, o := range trace.Operations(w) {
		if o.Inv == f.At || o.Res == f.At {
			return &Violation{Op: o, Reason: f.Reason}
		}
	}
	return &Violation{Op: trace.Operation{Inv: f.At, Res: -1}, Reason: f.Reason}
}

// Counter checks the safety clauses of the eventual counters on one growing
// history, one symbol at a time: clauses (1)–(2) of the weakly-eventual
// consistent counter (Definition 2.7) and, when strong, clause (4) of the
// strongly-eventual one (Definition 2.8):
//
//	(1) every read of a process returns at least the number of inc operations
//	    of the same process that precede it;
//	(2) every read of a process returns at least the value of the process's
//	    previous read;
//	(4) every read returns at most the number of inc operations that precede
//	    or are concurrent with it.
//
// Each clause judges one read by what precedes its response, so a read is
// judged once, at its response, in constant time, and a violation is never
// repaired. An inc precedes or is concurrent with a read exactly when its
// invocation appears before the read's response, so clause (4)'s bound is
// the number of inc invocations fed so far. That makes clause (4) real-time
// sensitive — the reason SEC_COUNT is not real-time oblivious and hence
// undecidable against A (Theorem 5.2). Clause (3) is a liveness property of
// ω-words; see Converges for the finite-trace diagnostic.
//
// Clauses (1)–(2) are per process, so the checker keeps going after a
// violation: Shown is the violation the last symbol showed, Violation the
// first. The checker trusts the word to be well formed (trace.WellFormed). A
// Counter is not safe for concurrent use.
type Counter struct {
	strong bool
	fed    int
	incs   int // inc invocations fed: clause (4)'s bound
	procs  map[int]counterProc
	first  *Fault
	shown  *Fault
}

// counterProc is one process's part of clauses (1)–(2).
type counterProc struct {
	incs     int64 // completed incs
	lastRead int64
	read     bool // lastRead holds a read's value
}

// NewCounter returns a checker for the empty history: of clauses (1), (2)
// and (4) when strong, of (1)–(2) otherwise.
func NewCounter(strong bool) *Counter {
	return &Counter{strong: strong, procs: map[int]counterProc{}}
}

// Append feeds the next symbol of the history.
func (c *Counter) Append(sym trace.Symbol) {
	c.fed++
	c.shown = nil
	switch {
	case sym.Op == trace.OpInc && sym.Kind == trace.Inv:
		c.incs++
	case sym.Op == trace.OpInc && sym.Kind == trace.Res:
		p := c.procs[sym.Proc]
		p.incs++
		c.procs[sym.Proc] = p
	case sym.Op == trace.OpRead && sym.Kind == trace.Res:
		c.shown = c.read(sym)
		if c.first == nil {
			c.first = c.shown
		}
	}
}

// read judges a read response, the checker's c.fed-th symbol.
func (c *Counter) read(sym trace.Symbol) *Fault {
	at := c.fed - 1
	v, ok := sym.Val.(trace.Int)
	if !ok {
		return &Fault{At: at, Reason: "read returned a non-integer value"}
	}
	p := c.procs[sym.Proc]
	prev, hadRead := p.lastRead, p.read
	p.lastRead, p.read = int64(v), true
	c.procs[sym.Proc] = p
	switch {
	case int64(v) < p.incs:
		return &Fault{At: at, Reason: fmt.Sprintf("clause (1): returned %d < %d own preceding incs", v, p.incs)}
	case hadRead && int64(v) < prev:
		return &Fault{At: at, Reason: fmt.Sprintf("clause (2): returned %d < previous read %d", v, prev)}
	case c.strong && int64(v) > int64(c.incs):
		return &Fault{At: at, Reason: fmt.Sprintf("clause (4): returned %d > %d incs preceding or concurrent", v, c.incs)}
	}
	return nil
}

// Shown returns the violation the last symbol fed showed, or nil.
func (c *Counter) Shown() *Fault { return c.shown }

// Violation returns the first violation fed, or nil.
func (c *Counter) Violation() *Fault { return c.first }

// OK reports whether no read fed so far violates a clause.
func (c *Counter) OK() bool { return c.first == nil }

// Converges is the finite-trace diagnostic for clause (3) of the eventual
// counters: if the word's suffix after the last inc response contains reads,
// the final read of every process that reads in that suffix must return the
// total number of incs invoked in the word. It reports false for traces that
// end mid-convergence, so it is a diagnostic for quiescent trace tails, not a
// language membership test (membership of ω-words is handled by labelled
// sources in the experiment harness). A word with a read that returns no
// integer does not converge.
func Converges(w trace.Word) bool {
	ops := trace.Operations(w)
	totalIncs := 0
	lastIncEnd := -1
	for _, o := range ops {
		if o.Op == trace.OpInc {
			totalIncs++
			if o.Res > lastIncEnd {
				lastIncEnd = o.Res
			}
		}
	}
	finalRead := map[int]trace.Int{}
	for _, o := range ops {
		if o.Pending() || o.Op != trace.OpRead {
			continue
		}
		v, ok := o.Ret.(trace.Int)
		if !ok {
			return false
		}
		if o.Inv >= lastIncEnd {
			finalRead[o.ID.Proc] = v
		}
	}
	for _, v := range finalRead {
		if v != trace.Int(totalIncs) {
			return false
		}
	}
	return len(finalRead) > 0
}

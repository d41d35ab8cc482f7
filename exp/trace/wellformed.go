package trace

import (
	"errors"
	"fmt"
)

// ErrNotWellFormed is wrapped by all well-formedness violations reported by
// WellFormed, so callers can match with errors.Is.
var ErrNotWellFormed = errors.New("word is not well-formed")

// WellFormed checks the finite-prefix portion of Definition 2.1 on a word:
// sequentiality — every local word w|i alternates invocation and response
// symbols starting with an invocation, and every response names the same
// operation as the invocation it closes. The reliability and fairness clauses
// of the definition constrain infinite words only; for the finite prefixes
// handled here every prefix of a well-formed ω-word passes this check.
func WellFormed(w Word) error {
	type pend struct {
		op  string
		pos int
	}
	open := map[int]pend{}
	for i, s := range w {
		switch s.Kind {
		case Inv:
			if p, dup := open[s.Proc]; dup {
				return fmt.Errorf("%w: process %d invokes %q at position %d while %q from position %d is pending",
					ErrNotWellFormed, s.Proc, s.Op, i, p.op, p.pos)
			}
			open[s.Proc] = pend{op: s.Op, pos: i}
		case Res:
			p, ok := open[s.Proc]
			if !ok {
				return fmt.Errorf("%w: process %d responds %q at position %d with no pending invocation",
					ErrNotWellFormed, s.Proc, s.Op, i)
			}
			if p.op != s.Op {
				return fmt.Errorf("%w: process %d response %q at position %d does not match pending invocation %q",
					ErrNotWellFormed, s.Proc, s.Op, i, p.op)
			}
			delete(open, s.Proc)
		default:
			return fmt.Errorf("%w: symbol at position %d has invalid kind %d", ErrNotWellFormed, i, s.Kind)
		}
	}
	return nil
}

// IsWellFormed reports whether WellFormed returns nil.
func IsWellFormed(w Word) bool { return WellFormed(w) == nil }

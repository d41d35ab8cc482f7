package check

import (
	"fmt"
	"slices"

	"github.com/drv-go/drv/exp/trace"
)

// ECLedger checks clause (1) of the eventually consistent ledger
// (Definition 2.9) on one growing history, one symbol at a time. For the
// deterministic ledger the clause says: the returns of complete gets form a
// chain in the prefix order, and the longest is buildable from the word's
// appends, each used at most once; pending operations constrain nothing.
// The clause is order-free, so its state is the multiset of appended
// records, which only grows, and the longest sequence a complete get
// returned, which only extends, and each symbol costs only itself.
//
//   - An append invocation adds its record to the multiset.
//   - A get response must be prefix-comparable with the longest sequence
//     returned so far. Comparability with the longest is comparability with
//     every earlier return, since those are its prefixes. A longer return
//     becomes the new longest, and only its new suffix is counted against
//     the multiset.
//
// A non-record append argument, a non-sequence get return and two
// incomparable returns falsify every extension, so they are sticky. A record
// used more often than it is appended is not: a later append invocation can
// repair it, and an order-free check must not flag a get that precedes its
// append in the same batch of symbols. So the checker keeps only the count
// of over-used records and judges it in OK. OK's answer is sticky once
// false, which makes OK after every response exactly "no response-ended
// prefix violates clause (1)", and OK after a batch the clause on the whole
// batch. Violation is the fault behind OK's first false answer.
//
// The checker trusts the word to be well formed (trace.WellFormed): a get
// response is read as completing a get. An ECLedger is not safe for
// concurrent use.
type ECLedger struct {
	fed     int
	fault   *Fault // the first violation found
	longest trace.Seq
	recs    map[trace.Rec]recUse
	over    int   // records with used > appended
	overUse Fault // the first over-use since over was last 0
}

// recUse counts a record's appends and its occurrences in the longest
// returned sequence.
type recUse struct{ appended, used int }

// NewECLedger returns a checker for the empty history.
func NewECLedger() *ECLedger {
	c := &ECLedger{}
	c.Reset()
	return c
}

// Reset rewinds the checker to the empty history, keeping its map. The zero
// ECLedger is ready after a Reset.
func (c *ECLedger) Reset() {
	c.fed = 0
	c.fault = nil
	c.longest = nil
	if c.recs == nil {
		c.recs = map[trace.Rec]recUse{}
	} else {
		clear(c.recs)
	}
	c.over = 0
}

// Len returns the number of symbols fed since the last Reset.
func (c *ECLedger) Len() int { return c.fed }

// Append feeds the next symbol of the history.
func (c *ECLedger) Append(sym trace.Symbol) {
	c.fed++
	if c.fault != nil {
		return
	}
	switch {
	case sym.Kind == trace.Inv && sym.Op == trace.OpAppend:
		r, ok := sym.Val.(trace.Rec)
		if !ok {
			c.fail("append with non-record argument")
			return
		}
		u := c.recs[r]
		u.appended++
		if u.used == u.appended {
			c.over-- // the append covers the last over-use
		}
		c.recs[r] = u
	case sym.Kind == trace.Res && sym.Op == trace.OpGet:
		s, ok := sym.Val.(trace.Seq)
		if !ok {
			c.fail("get returned a non-sequence value")
			return
		}
		k := min(len(s), len(c.longest))
		if !slices.Equal(s[:k], c.longest[:k]) {
			c.fail(fmt.Sprintf("clause (1): return %v does not extend %v", s, c.longest))
			return
		}
		for i, r := range s[k:] {
			u := c.recs[r]
			u.used++
			if u.used == u.appended+1 {
				if c.over++; c.over == 1 {
					c.overUse = Fault{At: c.fed - 1, Reason: fmt.Sprintf(
						"clause (1): position %d returns record %q appended fewer than %d times", k+i, r, u.used)}
				}
			}
			c.recs[r] = u
		}
		if len(s) > k {
			c.longest = s
		}
	}
}

// fail records a sticky violation at the last symbol fed.
func (c *ECLedger) fail(reason string) {
	c.fault = &Fault{At: c.fed - 1, Reason: reason}
}

// OK reports whether the history fed so far satisfies clause (1), when OK
// has not answered false before.
func (c *ECLedger) OK() bool {
	if c.over > 0 && c.fault == nil {
		c.fault = &c.overUse
	}
	return c.fault == nil
}

// Holds reports whether the history fed so far satisfies clause (1). Unlike
// OK it is not sticky: a record over-used by the history fed so far may be
// covered by a later append.
func (c *ECLedger) Holds() bool { return c.fault == nil && c.over == 0 }

// Violation returns the violation behind OK's first false answer, or nil.
func (c *ECLedger) Violation() *Fault { return c.fault }

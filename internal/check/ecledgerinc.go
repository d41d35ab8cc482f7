package check

import (
	"slices"

	"github.com/drv-go/drv/exp/trace"
)

// ECLedger answers ECLedgerSafety over every prefix of one growing history
// at a cost per symbol bounded by the symbol itself, which is possible
// because clause (1) is order-free: its state is the multiset of appended
// records, which only grows, and the longest sequence a complete get
// returned, which only extends.
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
// repair it, and ECLedgerSafety, being order-free, must not flag a get that
// precedes its append in the same batch. So the checker keeps only the count
// of over-used records and judges it in OK. OK's answer is sticky once
// false, which makes OK after every response exactly "no response-ended
// prefix violates clause (1)", and OK after a batch ECLedgerSafety on the
// whole batch.
//
// The checker trusts the word to be well formed (trace.WellFormed): a get
// response is read as completing a get. An ECLedger is not safe for
// concurrent use.
type ECLedger struct {
	fed     int
	bad     bool
	longest trace.Seq
	recs    map[trace.Rec]recUse
	over    int // records with used > appended
}

// recUse counts a record's appends and its occurrences in the longest
// returned sequence.
type recUse struct{ appended, used int }

// NewECLedger returns a checker for the empty history.
func NewECLedger() *ECLedger {
	return &ECLedger{recs: map[trace.Rec]recUse{}}
}

// Len returns the number of symbols fed since the last Reset.
func (c *ECLedger) Len() int { return c.fed }

// Append feeds the next symbol of the history.
func (c *ECLedger) Append(sym trace.Symbol) {
	c.fed++
	if c.bad {
		return
	}
	switch {
	case sym.Kind == trace.Inv && sym.Op == trace.OpAppend:
		r, ok := sym.Val.(trace.Rec)
		if !ok {
			c.bad = true
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
			c.bad = true
			return
		}
		k := min(len(s), len(c.longest))
		if !slices.Equal(s[:k], c.longest[:k]) {
			c.bad = true
			return
		}
		for _, r := range s[k:] {
			u := c.recs[r]
			u.used++
			if u.used == u.appended+1 {
				c.over++
			}
			c.recs[r] = u
		}
		if len(s) > k {
			c.longest = s
		}
	}
}

// OK reports whether the history fed so far satisfies clause (1) — exactly
// ECLedgerSafety(prefix) == nil when OK has not answered false before.
func (c *ECLedger) OK() bool {
	if c.over > 0 {
		c.bad = true
	}
	return !c.bad
}

package trace

import (
	"strconv"
	"strings"
)

// View is the timestamp a timed adversary attaches to a response (Section
// 6.1): the set of invocations announced in the shared array M at the moment
// of the post-response snapshot. Because each process announces its own
// invocations in order, a view is fully described by a per-process count
// vector — view v contains the first v.Count(i) invocations of every process
// i. Views obtained through atomic snapshots are totally ordered by
// containment (the comparability property Appendix B's construction relies
// on), which here is pointwise ≤ on counts.
type View struct {
	counts []int
}

// NewView builds a view from a per-process invocation-count vector. The
// slice is copied.
func NewView(counts []int) View {
	c := make([]int, len(counts))
	copy(c, counts)
	return View{counts: c}
}

// Procs returns the number of processes the view spans.
func (v View) Procs() int { return len(v.counts) }

// Count returns how many invocations of process i the view contains.
func (v View) Count(i int) int { return v.counts[i] }

// Total returns the number of invocations in the view.
func (v View) Total() int {
	t := 0
	for _, c := range v.counts {
		t += c
	}
	return t
}

// Contains reports whether the view contains the identified invocation.
func (v View) Contains(id OpID) bool {
	return id.Proc < len(v.counts) && id.Idx < v.counts[id.Proc]
}

// Leq reports containment v ⊆ u, i.e. pointwise ≤. A process beyond the
// end of a count vector counts 0, as in Contains and Diff, so views over
// different process counts compare instead of panicking.
func (v View) Leq(u View) bool {
	for i, c := range v.counts {
		if c > 0 && (i >= len(u.counts) || c > u.counts[i]) {
			return false
		}
	}
	return true
}

// Equal reports v = u.
func (v View) Equal(u View) bool {
	if len(v.counts) != len(u.counts) {
		return false
	}
	for i, c := range v.counts {
		if c != u.counts[i] {
			return false
		}
	}
	return true
}

// Comparable reports whether the views are ordered by containment one way or
// the other. Atomic-snapshot views always are; collect-based timed
// adversaries can break this, which is the complication [41] addresses.
func (v View) Comparable(u View) bool { return v.Leq(u) || u.Leq(v) }

// Key renders the canonical encoding of the view, usable as a map key.
func (v View) Key() string {
	var b strings.Builder
	for i, c := range v.counts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// Diff calls fn for every invocation in v but not in u (u ⊆ v expected):
// the "view_k \ view_{k−1}" enumeration of Appendix B's construction.
func (v View) Diff(u View, fn func(id OpID)) {
	for i, c := range v.counts {
		lo := 0
		if i < len(u.counts) {
			lo = u.counts[i]
		}
		for k := lo; k < c; k++ {
			fn(OpID{Proc: i, Idx: k})
		}
	}
}

// String implements fmt.Stringer.
func (v View) String() string { return "view[" + v.Key() + "]" }

// Response is what a monitor process receives back from the service under
// inspection in Line 04 of the generic algorithm (Figure 1): the response
// symbol, and — when the service is a timed adversary — the view attached to
// it, plus the operation identifier the service assigned to the interaction.
type Response struct {
	Sym Symbol
	// ID tags the operation this response completes; unique per execution.
	ID OpID
	// View is non-nil only for timed services.
	View *View
}

// Package sketch implements the construction of Appendix B: from the views a
// timed adversary Aτ attaches to responses, build the history x~(E) — the
// sketch of the execution's input word in which operations may "shrink"
// (Figure 7). Theorem 6.1 gives the two properties monitors rely on:
// precedence in x(E) is preserved in x~(E), and x~(E) is the input of an
// execution indistinguishable from E.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrIncomparableViews is returned when the collected views do not form a
// containment chain. Atomic-snapshot timed adversaries never trigger it;
// collect-based ones can (the complication addressed in [41]).
var ErrIncomparableViews = errors.New("sketch: views are not totally ordered by containment")

// Triple is one observed interaction with Aτ: the invocation a process sent,
// the identifier Aτ assigned, the response, and the view attached to it.
// Triples are what Figure 8's monitor stores in its shared array M.
type Triple struct {
	ID   OpID
	Inv  Symbol
	Res  Symbol
	View View
}

// Resolver maps announced invocation identifiers to their symbols. Views may
// contain invocations of operations whose responses the collector never saw;
// the resolver (backed by Aτ's announcement log) supplies their symbols.
type Resolver func(OpID) Symbol

// BuildSketch constructs the sketch history from the triples, per Appendix B:
// distinct views are sorted in ascending containment order; for each view in
// turn, first the invocations in its difference with the previous view are
// appended, then the responses of all operations carrying exactly that view.
// Within a batch, symbols are appended in operation-identifier order — one
// canonical representative of the construction's equivalence class (any
// batch order yields the same precedence relations). The triples slice is
// not modified.
func BuildSketch(n int, triples []Triple, resolve Resolver) (Word, error) {
	var b SketchBuilder
	w, _, err := b.Extend(n, triples, resolve)
	return w, err
}

// SketchBuilder builds the sketch of a growing set of triples. It retains
// every triple fed since its last Reset, their sorted keys and the sketch it
// last built, so a monitor logic that feeds each round's new triples through
// Extend pays for the view groups those triples touch, not for the whole
// history. Reset keeps the grown buffers, so a warmed builder allocates
// nothing per build. The word Extend returns aliases the builder's scratch
// and is valid until the next call on the same SketchBuilder. The zero value
// is an empty builder.
type SketchBuilder struct {
	tris  []Triple    // every triple fed since the last Reset, in feeding order
	keys  []sketchKey // their sort keys, ascending
	spill []sketchKey // a batch's sorted keys while they merge into keys
	done  int         // keys[:done] form the view groups verified so far
	out   Word        // the sketch of the verified groups
	same  int         // out[:same] is unchanged since the last successful return
	bad   error       // the first triple whose view misses its own invocation
}

// sketchKey is one triple's sort key: its view's total, its identifier and
// its position in the builder's triples. Sorting keys instead of triples
// moves a few words per swap instead of a whole Triple, and computes each
// total once. The first key of a verified view group also records where the
// group's symbols begin in out.
type sketchKey struct {
	total int
	id    OpID
	pos   int
	off   int
}

// compareKeys orders keys by (view total, identifier, position). Equal totals
// force equal views in a containment chain, so each distinct view becomes one
// run with its responses in canonical batch order; the position breaks the
// remaining ties, so the order is total.
func compareKeys(x, y sketchKey) int {
	if d := cmp.Compare(x.total, y.total); d != 0 {
		return d
	}
	if d := compareOpIDs(x.id, y.id); d != 0 {
		return d
	}
	return cmp.Compare(x.pos, y.pos)
}

// Reset empties the builder, keeping its grown buffers.
func (b *SketchBuilder) Reset() {
	b.tris = b.tris[:0]
	b.keys = b.keys[:0]
	b.done = 0
	b.out = b.out[:0]
	b.same = 0
	b.bad = nil
}

// Extend adds the triples to those fed since the last Reset and returns the
// sketch of the union — the word and error BuildSketch returns on it — plus
// the length of the word's prefix that is unchanged since the last
// successfully returned sketch (0 after a Reset). The add slice is not
// modified.
//
// The new keys are sorted and merged into the retained ones in one pass, and
// only the view groups from the one where the first new key lands onward are
// checked and emitted again; the groups before it keep their symbols, and
// their checks still hold because containment is transitive. After an error
// the failed group and everything after it stay unverified, so the next call
// resumes there.
func (b *SketchBuilder) Extend(n int, add []Triple, resolve Resolver) (Word, int, error) {
	base := len(b.tris)
	b.tris = append(b.tris, add...)
	for i := range add {
		if b.bad == nil && !add[i].View.Contains(add[i].ID) {
			b.bad = fmt.Errorf("sketch: triple %v has view %v missing its own invocation", add[i].ID, add[i].View)
		}
	}
	if len(add) > 0 {
		b.merge(base)
	}
	if b.bad != nil {
		return nil, 0, b.bad
	}
	if len(b.keys) == 0 {
		return nil, 0, nil
	}
	keys := b.keys
	// A sketch holds one response per key and one invocation per operation
	// in the greatest view, so the buffer can be sized once.
	out := slices.Grow(b.out, max(0, len(keys)+keys[len(keys)-1].total-len(b.out)))
	b.same = min(b.same, len(out))
	var prev View // the empty view
	if b.done > 0 {
		prev = b.tris[keys[b.done-1].pos].View
	}
	for i := b.done; i < len(keys); {
		v := b.tris[keys[i].pos].View
		j := i + 1
		for ; j < len(keys) && keys[j].total == keys[i].total; j++ {
			if u := b.tris[keys[j].pos].View; !u.Equal(v) {
				b.out, b.done = out, i
				return nil, 0, fmt.Errorf("%w: %v vs %v", ErrIncomparableViews, v, u)
			}
		}
		if !prev.Leq(v) {
			b.out, b.done = out, i
			return nil, 0, fmt.Errorf("%w: %v vs %v", ErrIncomparableViews, prev, v)
		}
		keys[i].off = len(out)
		// Step 1: invocations newly visible in this view, enumerated in
		// identifier order (Diff's order: process, then index).
		for p := 0; p < v.Procs(); p++ {
			lo := 0
			if p < prev.Procs() {
				lo = prev.Count(p)
			}
			for k := lo; k < v.Count(p); k++ {
				out = append(out, resolve(OpID{Proc: p, Idx: k}))
			}
		}
		// Step 2: responses of the operations carrying exactly this view.
		for _, k := range keys[i:j] {
			out = append(out, b.tris[k.pos].Res)
		}
		prev = v
		i = j
	}
	b.out, b.done = out, len(keys)
	same := b.same
	b.same = len(out)
	return out, same, nil
}

// merge sorts the keys of the triples fed from position base on, drops the
// verified groups from the one where the first new key lands onward, so that
// the next walk re-checks and re-emits them, and merges the new keys into
// the retained ones. Keys before the landing point keep their positions.
func (b *SketchBuilder) merge(base int) {
	n0 := len(b.keys)
	b.keys = slices.Grow(b.keys, len(b.tris)-base)
	for i := base; i < len(b.tris); i++ {
		b.keys = append(b.keys, sketchKey{total: b.tris[i].View.Total(), id: b.tris[i].ID, pos: i})
	}
	batch := b.keys[n0:]
	slices.SortFunc(batch, compareKeys)
	// The first verified key whose total reaches the batch's least one
	// starts the group where the first new key lands: the new key either
	// joins that group or opens a new one before it, whose fresh invocations
	// the next group's depend on.
	if lo, _ := slices.BinarySearchFunc(b.keys[:b.done], batch[0].total, func(k sketchKey, t int) int {
		return cmp.Compare(k.total, t)
	}); lo < b.done {
		b.out = b.out[:b.keys[lo].off]
		b.done = lo
	}
	if n0 == 0 || compareKeys(b.keys[n0-1], batch[0]) < 0 {
		return // the batch sorts after every retained key: already in place
	}
	// Merge from the back, reading the batch from a copy, so every retained
	// key moves at most once and none is overwritten before it is read.
	b.spill = append(b.spill[:0], batch...)
	i, j := n0-1, len(b.spill)-1
	for k := len(b.keys) - 1; j >= 0; k-- {
		if i >= 0 && compareKeys(b.keys[i], b.spill[j]) > 0 {
			b.keys[k] = b.keys[i]
			i--
		} else {
			b.keys[k] = b.spill[j]
			j--
		}
	}
}

// compareOpIDs orders identifiers by process then per-process index — the
// canonical batch order of the construction.
func compareOpIDs(a, b OpID) int {
	if a.Proc != b.Proc {
		return cmp.Compare(a.Proc, b.Proc)
	}
	return cmp.Compare(a.Idx, b.Idx)
}

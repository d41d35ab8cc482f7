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
// batch order yields the same precedence relations).
func BuildSketch(n int, triples []Triple, resolve Resolver) (Word, error) {
	var b SketchBuilder
	return b.BuildSketch(n, triples, resolve)
}

// SketchBuilder holds BuildSketch's scratch buffers. A monitor logic that builds one
// sketch per round reuses its SketchBuilder, so steady-state rounds allocate
// nothing; the word a BuildSketch returns aliases the scratch and is valid until
// the next call on the same SketchBuilder.
type SketchBuilder struct {
	keys  []sketchKey
	out   Word
	fresh []OpID
}

// sketchKey is one triple's sort key: its view's total, its identifier and
// its position in the caller's slice. Sorting keys instead of triples moves a
// few words per swap instead of a whole Triple, and computes each total once.
type sketchKey struct {
	total int
	id    OpID
	pos   int
}

// BuildSketch is the buffer-reusing form of the package-level BuildSketch; both produce
// byte-identical words. The triples slice is not modified.
func (b *SketchBuilder) BuildSketch(n int, triples []Triple, resolve Resolver) (Word, error) {
	if len(triples) == 0 {
		return nil, nil
	}
	for i := range triples {
		if !triples[i].View.Contains(triples[i].ID) {
			return nil, fmt.Errorf("sketch: triple %v has view %v missing its own invocation", triples[i].ID, triples[i].View)
		}
	}
	// Sorting by (view total, identifier) groups each distinct view of a
	// containment chain into one run — equal totals force equal views — with
	// the run's responses already in canonical batch order. The position
	// breaks the remaining ties, so the order is total.
	keys := b.keys[:0]
	for i := range triples {
		keys = append(keys, sketchKey{total: triples[i].View.Total(), id: triples[i].ID, pos: i})
	}
	b.keys = keys
	slices.SortFunc(keys, func(x, y sketchKey) int {
		if d := cmp.Compare(x.total, y.total); d != 0 {
			return d
		}
		if d := compareOpIDs(x.id, y.id); d != 0 {
			return d
		}
		return cmp.Compare(x.pos, y.pos)
	})
	out := b.out[:0]
	fresh := b.fresh[:0]
	var prev View // the empty view
	for i := 0; i < len(keys); {
		v := triples[keys[i].pos].View
		j := i + 1
		for ; j < len(keys) && keys[j].total == keys[i].total; j++ {
			if u := triples[keys[j].pos].View; !u.Equal(v) {
				b.out, b.fresh = out, fresh
				return nil, fmt.Errorf("%w: %v vs %v", ErrIncomparableViews, v, u)
			}
		}
		if !prev.Leq(v) {
			b.out, b.fresh = out, fresh
			return nil, fmt.Errorf("%w: %v vs %v", ErrIncomparableViews, prev, v)
		}
		// Step 1: invocations newly visible in this view, enumerated in
		// identifier order (Diff ascends by process then index).
		fresh = fresh[:0]
		for p := 0; p < v.Procs(); p++ {
			lo := 0
			if p < prev.Procs() {
				lo = prev.Count(p)
			}
			for k := lo; k < v.Count(p); k++ {
				fresh = append(fresh, OpID{Proc: p, Idx: k})
			}
		}
		for _, id := range fresh {
			out = append(out, resolve(id))
		}
		// Step 2: responses of the operations carrying exactly this view.
		for _, k := range keys[i:j] {
			out = append(out, triples[k.pos].Res)
		}
		prev = v
		i = j
	}
	b.out, b.fresh = out, fresh
	return out, nil
}

// compareOpIDs orders identifiers by process then per-process index — the
// canonical batch order of the construction.
func compareOpIDs(a, b OpID) int {
	if a.Proc != b.Proc {
		return cmp.Compare(a.Proc, b.Proc)
	}
	return cmp.Compare(a.Idx, b.Idx)
}

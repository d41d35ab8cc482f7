package trace_test

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// referenceSketch is Appendix B's construction written the direct way: sort
// copies of the triples by (view total, identifier), then walk the runs of
// equal views. SketchBuilder must produce the same words and errors.
func referenceSketch(triples []trace.Triple, resolve trace.Resolver) (trace.Word, error) {
	if len(triples) == 0 {
		return nil, nil
	}
	for _, tr := range triples {
		if !tr.View.Contains(tr.ID) {
			return nil, fmt.Errorf("sketch: triple %v has view %v missing its own invocation", tr.ID, tr.View)
		}
	}
	tris := slices.Clone(triples)
	slices.SortFunc(tris, func(x, y trace.Triple) int {
		if d := cmp.Compare(x.View.Total(), y.View.Total()); d != 0 {
			return d
		}
		if d := cmp.Compare(x.ID.Proc, y.ID.Proc); d != 0 {
			return d
		}
		return cmp.Compare(x.ID.Idx, y.ID.Idx)
	})
	var out trace.Word
	var prev trace.View
	for i := 0; i < len(tris); {
		v := tris[i].View
		j := i + 1
		for ; j < len(tris) && tris[j].View.Total() == v.Total(); j++ {
			if !tris[j].View.Equal(v) {
				return nil, fmt.Errorf("%w: %v vs %v", trace.ErrIncomparableViews, v, tris[j].View)
			}
		}
		if !prev.Leq(v) {
			return nil, fmt.Errorf("%w: %v vs %v", trace.ErrIncomparableViews, prev, v)
		}
		v.Diff(prev, func(id trace.OpID) { out = append(out, resolve(id)) })
		for _, tr := range tris[i:j] {
			out = append(out, tr.Res)
		}
		prev = v
		i = j
	}
	return out, nil
}

func resolveOp(id trace.OpID) trace.Symbol { return trace.NewInv(id.Proc, "op", nil) }

// randTriples draws a triple set over n processes: a containment chain of
// views, each announced operation completing with probability 3/4 under a
// chain view that contains it (so several triples share a view, hence a
// total), shuffled. With bad set, one triple's view is replaced by a random
// count vector that still contains its own invocation, which usually breaks
// the chain.
func randTriples(n int, bad bool, rng *rand.Rand) []trace.Triple {
	counts := make([]int, n)
	var chain []trace.View
	for k := 1 + rng.Intn(8); k > 0; k-- {
		for p := range counts {
			counts[p] += rng.Intn(2)
		}
		chain = append(chain, trace.NewView(counts))
	}
	var trs []trace.Triple
	for p := 0; p < n; p++ {
		for idx := 0; idx < counts[p]; idx++ {
			if rng.Intn(4) == 0 {
				continue
			}
			first := 0
			for chain[first].Count(p) <= idx {
				first++
			}
			trs = append(trs, trace.Triple{
				ID:   trace.OpID{Proc: p, Idx: idx},
				Inv:  trace.NewInv(p, "op", nil),
				Res:  trace.NewRes(p, "op", trace.Int(int64(len(trs)))),
				View: chain[first+rng.Intn(len(chain)-first)],
			})
		}
	}
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	if bad && len(trs) > 0 {
		tr := &trs[rng.Intn(len(trs))]
		vc := make([]int, n)
		for p := range vc {
			vc[p] = rng.Intn(4)
		}
		vc[tr.ID.Proc] = max(vc[tr.ID.Proc], tr.ID.Idx+1)
		tr.View = trace.NewView(vc)
	}
	return trs
}

// TestSketchBuilderMatchesReference differentially tests the key-sorted
// builder against the reference on random triple sets over 1–4 processes,
// reusing one builder across every call, comparing words and error texts.
func TestSketchBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var b trace.SketchBuilder
	errs := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		trs := randTriples(n, trial%3 == 2, rng)
		orig := slices.Clone(trs)
		want, wantErr := referenceSketch(trs, resolveOp)
		got, gotErr := b.BuildSketch(n, trs, resolveOp)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v on %v", trial, gotErr, wantErr, trs)
		}
		if wantErr != nil {
			errs++
			if errors.Is(wantErr, trace.ErrIncomparableViews) != errors.Is(gotErr, trace.ErrIncomparableViews) {
				t.Fatalf("trial %d: error %v does not wrap like the reference's %v", trial, gotErr, wantErr)
			}
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: built\n%v\nreference\n%v\nfrom %v", trial, got, want, trs)
		}
		for i := range trs {
			if trs[i].ID != orig[i].ID || !trs[i].View.Equal(orig[i].View) {
				t.Fatalf("trial %d: BuildSketch reordered or changed its input", trial)
			}
		}
	}
	if errs == 0 {
		t.Fatal("no trial produced an error; the generator no longer covers the error paths")
	}
}

// TestSketchBuilderIncomparableViewsText pins the error text of both
// incomparable-view checks: two distinct views of equal total, and a view
// that does not contain the one before it.
func TestSketchBuilderIncomparableViewsText(t *testing.T) {
	tri := func(p, idx int, counts ...int) trace.Triple {
		return trace.Triple{
			ID:   trace.OpID{Proc: p, Idx: idx},
			Inv:  trace.NewInv(p, "op", nil),
			Res:  trace.NewRes(p, "op", trace.Unit{}),
			View: trace.NewView(counts),
		}
	}
	for _, tc := range []struct {
		trs  []trace.Triple
		want string
	}{
		{
			[]trace.Triple{tri(1, 0, 0, 1), tri(0, 0, 1, 0)},
			"sketch: views are not totally ordered by containment: view[1,0] vs view[0,1]",
		},
		{
			[]trace.Triple{tri(0, 0, 1, 0), tri(1, 1, 0, 2)},
			"sketch: views are not totally ordered by containment: view[1,0] vs view[0,2]",
		},
	} {
		var b trace.SketchBuilder
		_, err := b.BuildSketch(2, tc.trs, resolveOp)
		if err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
		if _, refErr := referenceSketch(tc.trs, resolveOp); refErr == nil || refErr.Error() != tc.want {
			t.Errorf("reference error %v, want %q", refErr, tc.want)
		}
		if !errors.Is(err, trace.ErrIncomparableViews) {
			t.Errorf("error %v does not wrap ErrIncomparableViews", err)
		}
	}
}

// TestSketchBuilderSteadyStateAllocs pins a warmed builder at zero
// allocations per build, the monitors' once-per-round path.
func TestSketchBuilderSteadyStateAllocs(t *testing.T) {
	var trs []trace.Triple
	rng := rand.New(rand.NewSource(5))
	for len(trs) < 12 {
		trs = randTriples(4, false, rng)
	}
	var b trace.SketchBuilder
	if _, err := b.BuildSketch(4, trs, resolveOp); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { b.BuildSketch(4, trs, resolveOp) }); avg != 0 {
		t.Errorf("warmed SketchBuilder allocates %.1f per build, want 0", avg)
	}
}

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
// copies of the triples stably by (view total, identifier), then walk the
// runs of equal views. SketchBuilder must produce the same words and errors;
// the stable sort orders duplicate identifiers as the builder does, by
// position.
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
	slices.SortStableFunc(tris, func(x, y trace.Triple) int {
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
// reusing one builder across every call, comparing words and error texts:
// once as a one-shot BuildSketch of the whole set, and once fed through
// Extend in random batches, after every one of which the word must be the
// reference's sketch of the union so far and the reported prefix must be
// unchanged from the last successfully returned word. Trials alternate
// between valid chains, collect-style sets whose views are not a chain, and
// so a builder that just failed must recover after its Reset.
func TestSketchBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var b, ext trace.SketchBuilder
	errs, splits := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		trs := randTriples(n, trial%3 == 2, rng)
		orig := slices.Clone(trs)
		want, wantErr := referenceSketch(trs, resolveOp)
		got, gotErr := b.BuildSketch(n, trs, resolveOp)
		sameResult(t, fmt.Sprintf("trial %d", trial), trs, got, gotErr, want, wantErr)
		if wantErr != nil {
			errs++
		}
		for i := range trs {
			if trs[i].ID != orig[i].ID || !trs[i].View.Equal(orig[i].View) {
				t.Fatalf("trial %d: BuildSketch reordered or changed its input", trial)
			}
		}
		splits += checkExtendSplits(t, fmt.Sprintf("trial %d", trial), &ext, n, trs, rng)
	}
	if errs == 0 {
		t.Fatal("no trial produced an error; the generator no longer covers the error paths")
	}
	if splits == 0 {
		t.Fatal("no Extend batch re-emitted less than the whole word; the splits no longer cover the incremental path")
	}
}

// sameResult fails the test unless a built word and error match the
// reference's: equal words, or equal error texts wrapping alike.
func sameResult(t *testing.T, ctx string, trs []trace.Triple, got trace.Word, gotErr error, want trace.Word, wantErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, reference %v on %v", ctx, gotErr, wantErr, trs)
	}
	if wantErr != nil {
		if errors.Is(wantErr, trace.ErrIncomparableViews) != errors.Is(gotErr, trace.ErrIncomparableViews) {
			t.Fatalf("%s: error %v does not wrap like the reference's %v", ctx, gotErr, wantErr)
		}
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s: built\n%v\nreference\n%v\nfrom %v", ctx, got, want, trs)
	}
}

// checkExtendSplits resets b and feeds it trs in random batches (empty ones
// included), checking after every batch that Extend returns the reference's
// sketch of the union so far and that the prefix it reports unchanged really
// is unchanged from the last successfully returned word. It returns how many
// batches re-emitted less than their whole word.
func checkExtendSplits(t *testing.T, ctx string, b *trace.SketchBuilder, n int, trs []trace.Triple, rng *rand.Rand) int {
	t.Helper()
	b.Reset()
	var last trace.Word // the last successfully returned word, copied
	partial := 0
	for fed := 0; fed < len(trs) || fed == 0; {
		k := fed + rng.Intn(len(trs)-fed+1)
		got, same, gotErr := b.Extend(n, trs[fed:k], resolveOp)
		fed = k
		want, wantErr := referenceSketch(trs[:fed], resolveOp)
		sameResult(t, fmt.Sprintf("%s: Extend up to %d of %d", ctx, fed, len(trs)), trs[:fed], got, gotErr, want, wantErr)
		if gotErr != nil {
			continue
		}
		if same < 0 || same > len(last) || same > len(got) || !got[:same].Equal(last[:same]) {
			t.Fatalf("%s: Extend up to %d reports %d symbols unchanged, but the last word was\n%v\nand this one is\n%v",
				ctx, fed, same, last, got)
		}
		if same > 0 && same < len(got) {
			partial++
		}
		last = slices.Clone(got)
		if fed == len(trs) {
			break
		}
	}
	return partial
}

// TestSketchBuilderViewsOverDifferentProcessCounts builds sketches whose
// views span different numbers of processes, which View.Leq once indexed
// past the shorter vector: a missing count reads as 0, so a contained view
// builds and an incomparable one is an error, never a panic.
func TestSketchBuilderViewsOverDifferentProcessCounts(t *testing.T) {
	tri := func(p, idx int, counts ...int) trace.Triple {
		return trace.Triple{
			ID:   trace.OpID{Proc: p, Idx: idx},
			Inv:  trace.NewInv(p, "op", nil),
			Res:  trace.NewRes(p, "op", trace.Int(int64(p))),
			View: trace.NewView(counts),
		}
	}
	for _, tc := range []struct {
		trs     []trace.Triple
		wantErr string
	}{
		{trs: []trace.Triple{tri(0, 0, 1, 0, 0), tri(1, 0, 1, 1)}},
		{trs: []trace.Triple{tri(0, 0, 1, 1), tri(2, 0, 1, 1, 1)}},
		{
			trs:     []trace.Triple{tri(0, 0, 2, 0, 0), tri(1, 0, 1, 2)},
			wantErr: "sketch: views are not totally ordered by containment: view[2,0,0] vs view[1,2]",
		},
		{
			trs:     []trace.Triple{tri(0, 0, 1, 0, 1), tri(1, 0, 1, 1)},
			wantErr: "sketch: views are not totally ordered by containment: view[1,0,1] vs view[1,1]",
		},
	} {
		want, wantErr := referenceSketch(tc.trs, resolveOp)
		got, err := trace.BuildSketch(3, tc.trs, resolveOp)
		sameResult(t, fmt.Sprint(tc.trs), tc.trs, got, err, want, wantErr)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%v: %v, want a sketch", tc.trs, err)
		}
		if tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr || !errors.Is(err, trace.ErrIncomparableViews)) {
			t.Errorf("%v: error %v, want %q", tc.trs, err, tc.wantErr)
		}
	}
}

// FuzzSketchExtend decodes bytes into triples over 1–4 processes — views
// are arbitrary count vectors of 1–4 entries, so lengths may disagree with
// each other and with the process count — and into batch splits, and checks
// Extend against the reference after every batch, including the reported
// unchanged prefix. Neither may panic.
func FuzzSketchExtend(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 0, 2, 1, 0, 1, 1, 1})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 2, 2, 1, 1})
	f.Add([]byte{1, 0, 0, 1, 3, 2, 1, 0, 2, 1, 0, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%4
		data = data[1:]
		var trs []trace.Triple
		var cuts []int
		for len(data) >= 3 && len(trs) < 24 {
			// One triple: a control byte (process, view width, cut after),
			// an index, then one count per view entry.
			ctl, idx := data[0], int(data[1]%4)
			width := 1 + int(ctl>>2)%4
			data = data[2:]
			counts := make([]int, width)
			for i := range counts {
				if len(data) > 0 {
					counts[i] = int(data[0] % 5)
					data = data[1:]
				}
			}
			p := int(ctl) % n
			trs = append(trs, trace.Triple{
				ID:   trace.OpID{Proc: p, Idx: idx},
				Inv:  trace.NewInv(p, "op", nil),
				Res:  trace.NewRes(p, "op", trace.Int(int64(len(trs)))),
				View: trace.NewView(counts),
			})
			if ctl&0x40 != 0 {
				cuts = append(cuts, len(trs))
			}
		}
		cuts = append(cuts, len(trs))
		var b trace.SketchBuilder
		var last trace.Word
		fed := 0
		for _, k := range cuts {
			got, same, gotErr := b.Extend(n, trs[fed:k], resolveOp)
			fed = k
			want, wantErr := referenceSketch(trs[:fed], resolveOp)
			sameResult(t, fmt.Sprintf("Extend up to %d", fed), trs[:fed], got, gotErr, want, wantErr)
			if gotErr != nil {
				continue
			}
			if same > len(last) || !got[:same].Equal(last[:same]) {
				t.Fatalf("Extend up to %d reports %d symbols unchanged: last\n%v\nnow\n%v", fed, same, last, got)
			}
			last = slices.Clone(got)
		}
		one, oneErr := trace.BuildSketch(n, trs, resolveOp)
		want, wantErr := referenceSketch(trs, resolveOp)
		sameResult(t, "BuildSketch", trs, one, oneErr, want, wantErr)
	})
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

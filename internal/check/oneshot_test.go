package check

// Tests of the one-shot entry points (LinearizableOps, SeqConsistentOps):
// agreement with the independent generic search, the inputs that once took
// a separate fallback search (negative or sparse process ids, more than
// 65,535 operations on one process, out-of-range processes fed to an
// Incremental), the alternation panic, and a pin of the search's node
// counts.

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/spec"
	"github.com/drv-go/drv/internal/sut"
	"github.com/drv-go/drv/internal/word"
)

// TestOneShotMatchesGenericSearch differentially pins the one-shot checkers
// against the generic subset search on histories too large for the
// brute-force reference: the two must agree on every object, both precedence
// orders, across random histories mixing consistent, inconsistent and
// pending-heavy cases.
func TestOneShotMatchesGenericSearch(t *testing.T) {
	objects := []spec.Object{
		spec.Register(), spec.Counter(), spec.Queue(), spec.Stack(), spec.Ledger(),
	}
	rng := rand.New(rand.NewSource(42))
	for _, obj := range objects {
		for trial := 0; trial < 60; trial++ {
			w := randomHistory(rng, obj, 12+rng.Intn(28), 2+rng.Intn(3))
			ops := word.Operations(w)
			for _, realTime := range []bool{true, false} {
				if got, want := checkOps(obj, ops, realTime), genericOK(obj, ops, realTime); got != want {
					t.Fatalf("%s realTime=%v: one-shot=%v generic=%v on %v",
						obj.Name(), realTime, got, want, w)
				}
			}
		}
	}
}

// relabel renames every process of w through f.
func relabel(w word.Word, f func(int) int) word.Word {
	out := append(word.Word(nil), w...)
	for i := range out {
		out[i].Proc = f(out[i].Proc)
	}
	return out
}

// TestOneShotNegativeAndSparseProcesses pins the dense row layout: histories
// whose process ids are negative, sparse or both are decided exactly as the
// generic search and the densely numbered original decide them, by the
// one-shot checkers and by an Incremental whose range [0,n) misses them.
func TestOneShotNegativeAndSparseProcesses(t *testing.T) {
	relabels := map[string]func(int) int{
		"negative": func(p int) int { return -1 - p },
		"sparse":   func(p int) int { return 1000*p + 3 },
		"mixed": func(p int) int {
			if p%2 == 0 {
				return -7*p - 1
			}
			return p << 40
		},
	}
	objects := []spec.Object{spec.Register(), spec.Queue(), spec.Ledger()}
	for name, f := range relabels {
		rng := rand.New(rand.NewSource(5))
		for _, obj := range objects {
			for trial := 0; trial < 40; trial++ {
				w := randomHistory(rng, obj, 8+rng.Intn(20), 2+rng.Intn(3))
				rw := relabel(w, f)
				ops, rops := word.Operations(w), word.Operations(rw)
				for _, realTime := range []bool{true, false} {
					want := genericOK(obj, rops, realTime)
					if got := checkOps(obj, rops, realTime); got != want {
						t.Fatalf("%s %s realTime=%v: one-shot=%v generic=%v on %v", name, obj.Name(), realTime, got, want, rw)
					}
					if dense := checkOps(obj, ops, realTime); dense != want {
						t.Fatalf("%s %s realTime=%v: relabelled verdict %v, original %v on %v", name, obj.Name(), realTime, want, dense, w)
					}
					chk := NewIncremental(obj, realTime, 2)
					for i, s := range rw {
						chk.Append(s)
						if got, want := chk.OK(), genericOK(obj, word.Operations(rw[:i+1]), realTime); got != want {
							t.Fatalf("%s %s realTime=%v prefix %d: incremental=%v generic=%v on %v", name, obj.Name(), realTime, i+1, got, want, rw)
						}
					}
				}
			}
		}
	}
}

// TestOneShotLongProcess decides a one-process register history of more than
// 65,535 operations, beyond what a 16-bit front counter could encode, both
// as written and with its last read corrupted. A one-process history is
// consistent iff its sequential replay is valid, which is the reference.
func TestOneShotLongProcess(t *testing.T) {
	const pairs = 35_000 // one write and one read each
	var w word.Word
	for v := int64(0); v < pairs; v++ {
		w = append(w,
			word.Symbol{Proc: 0, Kind: word.Inv, Op: spec.OpWrite, Val: word.Int(v)},
			word.Symbol{Proc: 0, Kind: word.Res, Op: spec.OpWrite, Val: word.Unit{}},
			word.Symbol{Proc: 0, Kind: word.Inv, Op: spec.OpRead, Val: word.Unit{}},
			word.Symbol{Proc: 0, Kind: word.Res, Op: spec.OpRead, Val: word.Int(v)})
	}
	bad := append(word.Word(nil), w...)
	bad[len(bad)-1].Val = word.Int(-1)
	for _, tc := range []struct {
		name string
		w    word.Word
	}{{"valid", w}, {"corrupted", bad}} {
		ops := word.Operations(tc.w)
		if len(ops) <= 1<<16-1 {
			t.Fatalf("%d operations; the history must exceed 65,535", len(ops))
		}
		want := spec.Run(spec.Register(), ops)
		if tc.name == "valid" && !want {
			t.Fatal("the reference rejects the valid history")
		}
		for _, realTime := range []bool{true, false} {
			if got := checkOps(spec.Register(), ops, realTime); got != want {
				t.Errorf("%s realTime=%v: one-shot=%v, sequential replay=%v", tc.name, realTime, got, want)
			}
			if got := NewIncremental(spec.Register(), realTime, 1).CheckWord(tc.w); got != want {
				t.Errorf("%s realTime=%v: incremental=%v, sequential replay=%v", tc.name, realTime, got, want)
			}
		}
	}
}

// TestOneShotPanicsOnNonAlternatingOps pins the layout guard: a hand-built
// operation slice whose same-process operations overlap is not a history
// word.Operations can produce, and the one-shot checkers panic on it rather
// than mis-search it.
func TestOneShotPanicsOnNonAlternatingOps(t *testing.T) {
	ops := []word.Operation{
		{ID: word.OpID{Proc: 0, Idx: 0}, Op: spec.OpRead, Ret: word.Int(0), Inv: 0, Res: 3},
		{ID: word.OpID{Proc: 0, Idx: 1}, Op: spec.OpRead, Ret: word.Int(0), Inv: 1, Res: 2},
	}
	for _, realTime := range []bool{true, false} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("realTime=%v: overlapping same-process operations did not panic", realTime)
				}
			}()
			checkOps(spec.Register(), ops, realTime)
		}()
	}
}

// oneShotNodes returns the search nodes the one-shot checkers visit on ops,
// under real-time order and under process order.
func oneShotNodes(obj spec.Object, ops []word.Operation) (lin, sc int) {
	if len(ops) == 0 {
		return 0, 0
	}
	c := oneShot(obj, ops, true)
	c.search()
	lin = c.nodes
	c = oneShot(obj, ops, false)
	c.search()
	return lin, c.nodes
}

// TestOneShotNodeCounts pins the one-shot search's cost: on a fixed set of
// histories — the sutdiff and msgdiff generators' and the random histories of
// TestOneShotMatchesGenericSearch — the summed node counts under each order
// equal those of the per-process front search the one-shot replaced, which
// visited the same nodes in the same order.
func TestOneShotNodeCounts(t *testing.T) {
	want := map[string][2]int{
		"sut/queue/lock":               {138, 139},
		"sut/queue/lifo":               {155, 170},
		"sut/stack/lock":               {135, 134},
		"sut/stack/fifo":               {155, 179},
		"sut/register/atomic":          {157, 165},
		"sut/register/stale":           {153, 164},
		"sut/register/split":           {139, 174},
		"abd/fifo/clean":               {100, 116},
		"abd/random/clean":             {106, 118},
		"abd/random/dropped":           {76, 67},
		"abd/random/crash":             {76, 79},
		"abd/random/crash+dropped":     {59, 59},
		"abd/lifo/nowriteback":         {2771, 3561},
		"abd/lifo/nowriteback+dropped": {2492, 3024},
		"random/register":              {615, 6960},
		"random/counter":               {433, 6556},
		"random/queue":                 {391, 5452},
		"random/stack":                 {392, 6255},
		"random/ledger":                {406, 12225},
	}
	got := map[string][2]int{}
	add := func(name string, obj spec.Object, w word.Word) {
		lin, sc := oneShotNodes(obj, word.Operations(w))
		got[name] = [2]int{got[name][0] + lin, got[name][1] + sc}
	}
	sutCases := []struct {
		name string
		obj  spec.Object
		mk   func(n int) sut.Impl
	}{
		{"queue/lock", spec.Queue(), func(n int) sut.Impl { return sut.NewLockQueue() }},
		{"queue/lifo", spec.Queue(), func(n int) sut.Impl { return sut.NewLIFOQueue() }},
		{"stack/lock", spec.Stack(), func(n int) sut.Impl { return sut.NewLockStack() }},
		{"stack/fifo", spec.Stack(), func(n int) sut.Impl { return sut.NewFIFOStack() }},
		{"register/atomic", spec.Register(), func(n int) sut.Impl { return sut.NewAtomicRegister() }},
		{"register/stale", spec.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }},
		{"register/split", spec.Register(), func(n int) sut.Impl { return sut.NewSplitRegister(n) }},
	}
	for _, tc := range sutCases {
		for seed := int64(1); seed <= 12; seed++ {
			for _, crashStep := range []int{0, 9} {
				add("sut/"+tc.name, tc.obj, sutHistory(t, tc.obj, tc.mk(2), 2, 3, seed, crashStep, 1))
			}
		}
	}
	abdCases := []struct {
		name      string
		order     func(seed int64) msgnet.Order
		seeds     int64
		drops     []int
		crashStep int
		buggy     bool
	}{
		{name: "fifo/clean", order: func(int64) msgnet.Order { return msgnet.FIFOOrder() }, seeds: 10},
		{name: "random/clean", order: msgnet.RandomOrder, seeds: 10},
		{name: "random/dropped", order: msgnet.RandomOrder, seeds: 10, drops: []int{0, 2, 4, 7}},
		{name: "random/crash", order: msgnet.RandomOrder, seeds: 10, crashStep: 25},
		{name: "random/crash+dropped", order: msgnet.RandomOrder, seeds: 10, drops: []int{1, 3, 5}, crashStep: 40},
		{name: "lifo/nowriteback", order: func(int64) msgnet.Order { return msgnet.LIFOOrder() }, seeds: 300, buggy: true},
		{name: "lifo/nowriteback+dropped", order: func(int64) msgnet.Order { return msgnet.LIFOOrder() }, seeds: 300, drops: []int{2, 3}, buggy: true},
	}
	for _, tc := range abdCases {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			add("abd/"+tc.name, spec.Register(), abdHistory(t, 3, 2, seed, 0.4, tc.order(seed), tc.drops, tc.crashStep, 1, tc.buggy))
		}
	}
	for _, obj := range []spec.Object{spec.Register(), spec.Counter(), spec.Queue(), spec.Stack(), spec.Ledger()} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 60; trial++ {
			add("random/"+obj.Name(), obj, randomHistory(rng, obj, 12+rng.Intn(28), 2+rng.Intn(3)))
		}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: (lin, sc) nodes = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d history sets, want %d", len(got), len(want))
	}
}

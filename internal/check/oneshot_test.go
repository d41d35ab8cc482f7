package check

// Tests of the one-shot entry points (LinearizableOps, SeqConsistentOps):
// agreement with the independent generic search, a process of more than
// 65,535 operations, the layout panics, and a pin of the search's node
// counts. Words over negative or sparse process ids are package lang's
// Judge's to renumber; its tests pin that.

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sut"
)

// TestOneShotMatchesGenericSearch differentially pins the one-shot checkers
// against the generic subset search on histories too large for the
// brute-force reference: the two must agree on every object, both precedence
// orders, across random histories mixing consistent, inconsistent and
// pending-heavy cases.
func TestOneShotMatchesGenericSearch(t *testing.T) {
	objects := []trace.Object{
		trace.Register(), trace.Counter(), trace.Queue(), trace.Stack(), trace.Ledger(),
	}
	rng := rand.New(rand.NewSource(42))
	for _, obj := range objects {
		for trial := 0; trial < 60; trial++ {
			w := randomHistory(rng, obj, 12+rng.Intn(28), 2+rng.Intn(3))
			ops := trace.Operations(w)
			for _, realTime := range []bool{true, false} {
				if got, want := checkOps(obj, ops, realTime), genericOK(obj, ops, realTime); got != want {
					t.Fatalf("%s realTime=%v: one-shot=%v generic=%v on %v",
						obj.Name(), realTime, got, want, w)
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
	var w trace.Word
	for v := int64(0); v < pairs; v++ {
		w = append(w,
			trace.Symbol{Proc: 0, Kind: trace.Inv, Op: trace.OpWrite, Val: trace.Int(v)},
			trace.Symbol{Proc: 0, Kind: trace.Res, Op: trace.OpWrite, Val: trace.Unit{}},
			trace.Symbol{Proc: 0, Kind: trace.Inv, Op: trace.OpRead, Val: trace.Unit{}},
			trace.Symbol{Proc: 0, Kind: trace.Res, Op: trace.OpRead, Val: trace.Int(v)})
	}
	bad := append(trace.Word(nil), w...)
	bad[len(bad)-1].Val = trace.Int(-1)
	for _, tc := range []struct {
		name string
		w    trace.Word
	}{{"valid", w}, {"corrupted", bad}} {
		ops := trace.Operations(tc.w)
		if len(ops) <= 1<<16-1 {
			t.Fatalf("%d operations; the history must exceed 65,535", len(ops))
		}
		want := trace.SeqValid(trace.Register(), ops)
		if tc.name == "valid" && !want {
			t.Fatal("the reference rejects the valid history")
		}
		for _, realTime := range []bool{true, false} {
			if got := checkOps(trace.Register(), ops, realTime); got != want {
				t.Errorf("%s realTime=%v: one-shot=%v, sequential replay=%v", tc.name, realTime, got, want)
			}
			if got := checkWord(NewIncremental(trace.Register(), realTime, 1), tc.w); got != want {
				t.Errorf("%s realTime=%v: incremental=%v, sequential replay=%v", tc.name, realTime, got, want)
			}
		}
	}
}

// TestOneShotPanicsOnNonAlternatingOps pins the layout guards: a hand-built
// operation slice whose same-process operations overlap is not a history
// trace.Operations can produce, and one naming a negative process has no
// row, so the one-shot checkers panic on both rather than mis-search them.
func TestOneShotPanicsOnNonAlternatingOps(t *testing.T) {
	cases := map[string][]trace.Operation{
		"overlapping same-process operations": {
			{ID: trace.OpID{Proc: 0, Idx: 0}, Op: trace.OpRead, Ret: trace.Int(0), Inv: 0, Res: 3},
			{ID: trace.OpID{Proc: 0, Idx: 1}, Op: trace.OpRead, Ret: trace.Int(0), Inv: 1, Res: 2},
		},
		"a negative process": {
			{ID: trace.OpID{Proc: -1, Idx: 0}, Op: trace.OpRead, Ret: trace.Int(0), Inv: 0, Res: 1},
		},
	}
	for name, ops := range cases {
		for _, realTime := range []bool{true, false} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("realTime=%v: %s did not panic", realTime, name)
					}
				}()
				checkOps(trace.Register(), ops, realTime)
			}()
		}
	}
}

// oneShotNodes returns the search nodes the one-shot checkers visit on ops,
// under real-time order and under process order.
func oneShotNodes(obj trace.Object, ops []trace.Operation) (lin, sc int) {
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
// TestOneShotMatchesGenericSearch — the summed node counts under each order.
// Matching reads are placed without branching (placeRead), and dead nodes
// are cut (prune.go): the queue, stack and ledger rows count no node the
// unplaced operations can no longer explain, and a search whose start node
// is dead, as in most random queue and stack histories, counts none.
func TestOneShotNodeCounts(t *testing.T) {
	want := map[string][2]int{
		"sut/queue/lock":               {132, 130},
		"sut/queue/lifo":               {110, 114},
		"sut/stack/lock":               {133, 133},
		"sut/stack/fifo":               {127, 136},
		"sut/register/atomic":          {153, 148},
		"sut/register/stale":           {147, 147},
		"sut/register/split":           {132, 141},
		"abd/fifo/clean":               {70, 70},
		"abd/random/clean":             {70, 70},
		"abd/random/dropped":           {59, 50},
		"abd/random/crash":             {57, 57},
		"abd/random/crash+dropped":     {47, 47},
		"abd/lifo/nowriteback":         {2204, 2230},
		"abd/lifo/nowriteback+dropped": {2000, 2012},
		"random/register":              {481, 3889},
		"random/counter":               {350, 3721},
		"random/queue":                 {18, 18},
		"random/stack":                 {18, 18},
		"random/ledger":                {86, 112},
	}
	got := map[string][2]int{}
	nodeCountHistories(t, func(name string, obj trace.Object, w trace.Word) {
		lin, sc := oneShotNodes(obj, trace.Operations(w))
		got[name] = [2]int{got[name][0] + lin, got[name][1] + sc}
	})
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: (lin, sc) nodes = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d history sets, want %d", len(got), len(want))
	}
}

// nodeCountHistories feeds add the history sets TestOneShotNodeCounts pins,
// each history under its set's name.
func nodeCountHistories(t *testing.T, add func(name string, obj trace.Object, w trace.Word)) {
	sutCases := []struct {
		name string
		obj  trace.Object
		mk   func(n int) sut.Impl
	}{
		{"queue/lock", trace.Queue(), func(n int) sut.Impl { return sut.NewLockQueue() }},
		{"queue/lifo", trace.Queue(), func(n int) sut.Impl { return sut.NewLIFOQueue() }},
		{"stack/lock", trace.Stack(), func(n int) sut.Impl { return sut.NewLockStack() }},
		{"stack/fifo", trace.Stack(), func(n int) sut.Impl { return sut.NewFIFOStack() }},
		{"register/atomic", trace.Register(), func(n int) sut.Impl { return sut.NewAtomicRegister() }},
		{"register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }},
		{"register/split", trace.Register(), func(n int) sut.Impl { return sut.NewSplitRegister(n) }},
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
			add("abd/"+tc.name, trace.Register(), abdHistory(t, 3, 2, seed, 0.4, tc.order(seed), tc.drops, tc.crashStep, 1, tc.buggy))
		}
	}
	for _, obj := range []trace.Object{trace.Register(), trace.Counter(), trace.Queue(), trace.Stack(), trace.Ledger()} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 60; trial++ {
			add("random/"+obj.Name(), obj, randomHistory(rng, obj, 12+rng.Intn(28), 2+rng.Intn(3)))
		}
	}
}

package check

// Unit, property, fuzz, allocation and race coverage for the incremental
// checker beyond the differential battery of incdiff_test.go: interleaved
// prefix queries (the monitors re-check prefixes out of lockstep and repeat
// them), the CheckExtending reset path when successive histories are not
// extensions, the steady-state allocation pins the explorer's hot path
// relies on, and per-goroutine checker ownership under the race detector.

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// TestIncrementalInterleavedPrefixQueries drives one checker through an
// arbitrary (non-monotone, repeating) sequence of prefix lengths of the same
// history via CheckExtending — the HistAt access pattern — and compares
// every verdict with a fresh checker fed the same prefix from scratch.
// Histories include crash-shaped ones (operations pending forever).
func TestIncrementalInterleavedPrefixQueries(t *testing.T) {
	objs := []trace.Object{trace.Register(), trace.Queue(), trace.Counter()}
	for _, obj := range objs {
		obj := obj
		t.Run(obj.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 40; trial++ {
				n := 2 + rng.Intn(2)
				w := randWord(obj, n, 6+rng.Intn(10), []float64{0, 0.3}[trial%2], rng)
				for _, realTime := range []bool{true, false} {
					chk := NewIncremental(obj, realTime, n)
					for q := 0; q < 12; q++ {
						k := rng.Intn(len(w) + 1)
						got := chk.CheckExtending(w[:k], 0)
						if want := scratchOK(obj, realTime, w[:k]); got != want {
							t.Fatalf("%s trial %d realTime=%v: CheckExtending(w[:%d])=%v, fresh=%v on\n%v",
								obj.Name(), trial, realTime, k, got, want, w)
						}
						// Repeated query on the unchanged prefix must agree too.
						if got2 := chk.CheckExtending(w[:k], 0); got2 != got {
							t.Fatalf("%s trial %d: repeated CheckExtending(w[:%d]) flipped %v -> %v",
								obj.Name(), trial, k, got, got2)
						}
					}
				}
			}
		})
	}
}

// TestIncrementalCheckExtendingDivergence rebuilds the past between queries:
// the second history is not an extension of the first, so CheckExtending
// must reset and still agree with a fresh checker.
func TestIncrementalCheckExtendingDivergence(t *testing.T) {
	obj := trace.Register()
	rng := rand.New(rand.NewSource(23))
	chk := NewIncremental(obj, true, 3)
	for trial := 0; trial < 60; trial++ {
		w := randWord(obj, 3, 5+rng.Intn(8), 0.25, rng)
		if got, want := chk.CheckExtending(w, 0), scratchOK(obj, true, w); got != want {
			t.Fatalf("trial %d: CheckExtending=%v, fresh=%v on\n%v", trial, got, want, w)
		}
	}
}

// TestIncrementalCheckExtendingHint pins the prefix hint: over query
// sequences that extend, truncate and replace random histories, answering
// any query with any same up to the true common prefix of the fed history
// and the query gives the verdict, and leaves the searches, nodes and
// extends counters, that same == 0 does.
func TestIncrementalCheckExtendingHint(t *testing.T) {
	objs := []trace.Object{trace.Register(), trace.Queue(), trace.Counter()}
	rng := rand.New(rand.NewSource(29))
	hinted := 0
	for _, obj := range objs {
		for trial := 0; trial < 12; trial++ {
			n := 2 + rng.Intn(2)
			w := randWord(obj, n, 6+rng.Intn(10), []float64{0, 0.3}[trial%2], rng)
			var qs []trace.Word
			for q := 0; q < 8; q++ {
				if rng.Intn(4) == 0 {
					w = randWord(obj, n, 6+rng.Intn(10), 0.2, rng)
				}
				qs = append(qs, w[:rng.Intn(len(w)+1)])
			}
			for _, realTime := range []bool{true, false} {
				ref := NewIncremental(obj, realTime, n)
				var fed trace.Word
				for i, q := range qs {
					want := ref.CheckExtending(q, 0)
					wantCtr := [3]int{ref.searches, ref.nodes, ref.extends}
					cp := 0
					for cp < len(fed) && cp < len(q) && fed[cp].Equal(q[cp]) {
						cp++
					}
					for same := 1; same <= cp; same++ {
						chk := NewIncremental(obj, realTime, n)
						for _, p := range qs[:i] {
							chk.CheckExtending(p, 0)
						}
						got := chk.CheckExtending(q, same)
						if ctr := [3]int{chk.searches, chk.nodes, chk.extends}; got != want || ctr != wantCtr {
							t.Fatalf("%s trial %d realTime=%v query %d: same=%d gives %v %v, same=0 gives %v %v",
								obj.Name(), trial, realTime, i, same, got, ctr, want, wantCtr)
						}
						hinted++
					}
					fed = q
				}
			}
		}
	}
	if hinted == 0 {
		t.Fatal("no query shared a prefix with the history before it")
	}
}

// TestIncrementalCrashBoundaryInvalidation checks the crash shape directly:
// a process's operation left pending forever must keep every later verdict
// identical to from-scratch checking, including verdicts queried both before
// and after the crash point.
func TestIncrementalCrashBoundaryInvalidation(t *testing.T) {
	obj := trace.Register()
	// p0 writes 1 (completes), p1's write 2 stays pending (crashed), p0
	// then reads; the pending write may or may not have taken effect, so
	// reads of 0 and 2 are both linearizable, a read of 3 is not.
	base := trace.Word{
		{Proc: 0, Kind: trace.Inv, Op: trace.OpWrite, Val: trace.Int(1)},
		{Proc: 0, Kind: trace.Res, Op: trace.OpWrite, Val: trace.Unit{}},
		{Proc: 1, Kind: trace.Inv, Op: trace.OpWrite, Val: trace.Int(2)},
		{Proc: 0, Kind: trace.Inv, Op: trace.OpRead, Val: trace.Unit{}},
	}
	for _, tc := range []struct {
		ret  int64
		want bool
	}{{1, true}, {2, true}, {3, false}} {
		w := append(append(trace.Word(nil), base...),
			trace.Symbol{Proc: 0, Kind: trace.Res, Op: trace.OpRead, Val: trace.Int(tc.ret)})
		chk := NewIncremental(obj, true, 2)
		for _, s := range w {
			chk.Append(s)
		}
		if got := chk.OK(); got != tc.want {
			t.Errorf("read %d after pending-at-crash write: incremental=%v, want %v", tc.ret, got, tc.want)
		}
		if got := scratchOK(obj, true, w); got != tc.want {
			t.Errorf("read %d after pending-at-crash write: scratch=%v, want %v", tc.ret, got, tc.want)
		}
	}
}

// TestIncrementalPanicsMatchOperations pins Append to trace.Operations'
// well-formedness contract: same malformed inputs, same panic messages.
func TestIncrementalPanicsMatchOperations(t *testing.T) {
	cases := []trace.Word{
		{{Proc: 0, Kind: trace.Inv, Op: "read"}, {Proc: 0, Kind: trace.Inv, Op: "read"}},
		{{Proc: 0, Kind: trace.Res, Op: "read"}},
		{{Proc: 0, Kind: trace.Inv, Op: "read"}, {Proc: 0, Kind: trace.Res, Op: "write"}},
		{{Proc: 0, Kind: 7, Op: "read"}},
	}
	for i, w := range cases {
		wantMsg := func() (msg interface{}) {
			defer func() { msg = recover() }()
			trace.Operations(w)
			return nil
		}()
		gotMsg := func() (msg interface{}) {
			defer func() { msg = recover() }()
			chk := NewIncremental(trace.Register(), true, 2)
			for _, s := range w {
				chk.Append(s)
			}
			return nil
		}()
		if wantMsg == nil {
			t.Fatalf("case %d: trace.Operations did not panic", i)
		}
		if gotMsg != wantMsg {
			t.Errorf("case %d: Append panic %q, trace.Operations panic %q", i, gotMsg, wantMsg)
		}
	}
}

// TestIncrementalWitnessOrderedSearch pins the residual search's cost on a
// sequential-consistency register history whose responses keep refuting the
// cached witness. Visiting front operations in the last witness's order
// re-finds a witness within a few nodes of the refuted placement: on the long
// history the process-order search it replaced visited 120,618 nodes, the
// witness-ordered one 2,368. A checker reused after Reset must do exactly a
// fresh checker's work, and every prefix's verdict must equal the
// from-scratch check's and, where the history is small enough, the
// brute-force reference's.
func TestIncrementalWitnessOrderedSearch(t *testing.T) {
	obj := trace.Register()
	feed := func(c *Incremental, w trace.Word, each func(i int, ok bool)) {
		for i, s := range w {
			c.Append(s)
			ok := c.OK()
			if each != nil {
				each(i, ok)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		w        trace.Word
		maxNodes int
		brute    bool
	}{
		{"short", linPointWord(obj, 3, 16, 0.1, rand.New(rand.NewSource(3))), 100, true},
		{"long", linPointWord(obj, 4, 200, 0, rand.New(rand.NewSource(1))), 5000, false},
	} {
		fresh := NewIncremental(obj, false, 4)
		feed(fresh, tc.w, func(i int, ok bool) {
			p := tc.w[:i+1]
			if want := scratchOK(obj, false, p); ok != want {
				t.Fatalf("%s prefix %d: incremental sc=%v, from-scratch=%v", tc.name, i+1, ok, want)
			}
			if tc.brute {
				if want := BruteSeqConsistent(obj, p); ok != want {
					t.Fatalf("%s prefix %d: incremental sc=%v, brute=%v", tc.name, i+1, ok, want)
				}
			}
		})
		t.Logf("%s: %d searches, %d nodes, %d witness extensions", tc.name, fresh.searches, fresh.nodes, fresh.extends)
		if fresh.searches < 3 {
			t.Fatalf("%s: %d residual searches; the history no longer refutes the witness repeatedly", tc.name, fresh.searches)
		}
		if fresh.nodes > tc.maxNodes {
			t.Errorf("%s: %d search nodes, bound %d", tc.name, fresh.nodes, tc.maxNodes)
		}

		// Reuse: run a different history first, so stale ranks would show.
		reused := NewIncremental(obj, false, 4)
		feed(reused, linPointWord(obj, 4, 60, 0, rand.New(rand.NewSource(99))), nil)
		reused.Reset(4)
		searches, nodes, extends := reused.searches, reused.nodes, reused.extends
		feed(reused, tc.w, nil)
		if d := [3]int{reused.searches - searches, reused.nodes - nodes, reused.extends - extends}; d != [3]int{fresh.searches, fresh.nodes, fresh.extends} {
			t.Errorf("%s: reused checker did (searches, nodes, extends) = %v, fresh %v",
				tc.name, d, [3]int{fresh.searches, fresh.nodes, fresh.extends})
		}
	}
}

// TestIncrementalSteadyStateAllocs pins the object-family hot path at zero
// allocations: once a checker has processed one history of a workload's
// size, re-checking same-sized histories allocates nothing.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		obj      trace.Object
		realTime bool
	}{
		{trace.Register(), true},
		{trace.Register(), false},
		{trace.Counter(), true},
	} {
		rng := rand.New(rand.NewSource(5))
		w := randWord(tc.obj, 3, 24, 0, rng)
		chk := NewIncremental(tc.obj, tc.realTime, 3)
		chk.CheckWord(w) // grow every buffer to the workload's size
		avg := testing.AllocsPerRun(64, func() {
			chk.Reset(3)
			for _, s := range w {
				chk.Append(s)
			}
			chk.OK()
		})
		if avg != 0 {
			t.Errorf("%s realTime=%v: steady-state re-check allocates %.1f/run, want 0", tc.obj.Name(), tc.realTime, avg)
		}
	}
}

// TestIncrementalMsgFamilyAllocBudget budgets the message-family shape: the
// verdict stream re-checks growing prefixes of one history through
// CheckExtending. Accepting prefixes ride the cached witness without
// allocating; past a violation, each appended invocation may lawfully
// re-search (an invocation can resurrect acceptance), boxing a few
// specification states per search — the budget caps that at roughly two
// allocations per symbol of the rejected suffix, so a regression to
// per-symbol re-checking from scratch (tens of allocations each) fails.
func TestIncrementalMsgFamilyAllocBudget(t *testing.T) {
	obj := trace.Consensus()
	rng := rand.New(rand.NewSource(9))
	w := randWord(obj, 3, 24, 0.2, rng)
	chk := NewIncremental(obj, true, 3)
	chk.CheckWord(w)
	avg := testing.AllocsPerRun(32, func() {
		chk.Reset(3)
		for k := 1; k <= len(w); k++ {
			chk.CheckExtending(w[:k], 0)
		}
	})
	const budget = 32
	if avg > budget {
		t.Errorf("msg-family prefix sweep allocates %.1f/run, budget %d", avg, budget)
	}
}

// TestIncrementalPerGoroutineCheckers exercises checker pools under
// concurrent workers — each goroutine owns its Pool and its checkers, which
// is the contract the pooled explorer relies on; run under -race this pins
// the absence of hidden shared state (objects and specs must be stateless).
func TestIncrementalPerGoroutineCheckers(t *testing.T) {
	objs := []trace.Object{trace.Register(), trace.Queue()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			pool := NewPool()
			for trial := 0; trial < 30; trial++ {
				pool.Reclaim()
				for _, obj := range objs {
					w := randWord(obj, 2, 4+rng.Intn(8), 0.3, rng)
					chk := pool.Get(obj, trial%2 == 0, 2)
					got := chk.CheckExtending(w, 0)
					if want := scratchOK(obj, trial%2 == 0, w); got != want {
						t.Errorf("goroutine %d trial %d %s: pooled=%v, fresh=%v", g, trial, obj.Name(), got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzWord decodes a byte string into a well-formed register history over 3
// processes: each byte pair picks a process and a small value; a process
// with no pending operation invokes (even value: write, odd: read), one with
// a pending operation responds (reads take the data-driven value, so the
// corpus reaches violating histories).
func fuzzWord(data []byte) trace.Word {
	const n = 3
	var pend [n]bool
	var pendOp [n]string
	var w trace.Word
	for i := 0; i+1 < len(data) && len(w) < 24; i += 2 {
		p := int(data[i]) % n
		v := int64(data[i+1] % 6)
		if !pend[p] {
			if v%2 == 0 {
				w = append(w, trace.Symbol{Proc: p, Kind: trace.Inv, Op: trace.OpWrite, Val: trace.Int(v)})
				pendOp[p] = trace.OpWrite
			} else {
				w = append(w, trace.Symbol{Proc: p, Kind: trace.Inv, Op: trace.OpRead, Val: trace.Unit{}})
				pendOp[p] = trace.OpRead
			}
			pend[p] = true
			continue
		}
		var ret trace.Value
		if pendOp[p] == trace.OpWrite {
			ret = trace.Unit{}
		} else {
			ret = trace.Int(v)
		}
		w = append(w, trace.Symbol{Proc: p, Kind: trace.Res, Op: pendOp[p], Val: ret})
		pend[p] = false
	}
	return w
}

// FuzzIncrementalFrontSearch feeds fuzzer-shaped register histories through
// the incremental checker and cross-checks every prefix verdict against the
// from-scratch generic search (scratchOK), in both order modes.
func FuzzIncrementalFrontSearch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 1, 1, 3, 0, 1, 2, 0, 0, 5})
	f.Add([]byte{1, 2, 2, 1, 1, 0, 0, 3, 2, 3, 1, 1})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 3, 1, 5, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWord(data)
		obj := trace.Register()
		for _, realTime := range []bool{true, false} {
			if at, bad := incrementalDisagrees(obj, realTime, w); bad {
				t.Fatalf("realTime=%v: incremental disagrees with from-scratch at prefix %d of\n%v",
					realTime, at, shrinkMismatch(obj, realTime, w))
			}
		}
	})
}

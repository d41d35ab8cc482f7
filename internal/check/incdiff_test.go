package check

// Differential validation of the incremental checker: on every prefix of
// every generated history, Incremental's verdict must equal the from-scratch
// generic search's, and — where the workload is small enough to afford it — the
// exhaustive brute reference's. The histories span the explorer's three
// scenario families: synthetic language-family words (including truncated
// words with trailing pendings), object-family histories from the real
// implementations of package sut (including operations left pending at a
// crash), and message-family histories from the ABD emulation (including
// operations parked forever by a dropped message). A mismatch is shrunk to a
// minimal reproducing word before reporting, so a failure names the smallest
// offending history and the seed that found it.

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sut"
)

// scratchOK is the from-scratch reference the incremental checker must track
// on every prefix: the generic subset search, which shares no code with the
// checker it judges.
func scratchOK(obj trace.Object, realTime bool, w trace.Word) bool {
	return genericOK(obj, trace.Operations(w), realTime)
}

// wellFormed reports whether trace.Operations accepts w.
func wellFormed(w trace.Word) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	trace.Operations(w)
	return true
}

// incrementalDisagrees reports whether feeding w symbol-by-symbol into a
// fresh Incremental ever disagrees with the from-scratch reference on a
// prefix, returning the length of the first disagreeing prefix.
func incrementalDisagrees(obj trace.Object, realTime bool, w trace.Word) (int, bool) {
	chk := NewIncremental(obj, realTime, w.Procs())
	for i, s := range w {
		chk.Append(s)
		if chk.OK() != scratchOK(obj, realTime, w[:i+1]) {
			return i + 1, true
		}
	}
	return 0, false
}

// shrinkMismatch greedily removes symbols (keeping the word well-formed)
// while the incremental/scratch disagreement persists, returning a minimal
// reproducer.
func shrinkMismatch(obj trace.Object, realTime bool, w trace.Word) trace.Word {
	cur := append(trace.Word(nil), w...)
	for {
		shrunk := false
		for i := 0; i < len(cur); i++ {
			cand := append(append(trace.Word(nil), cur[:i]...), cur[i+1:]...)
			if !wellFormed(cand) {
				continue
			}
			if _, bad := incrementalDisagrees(obj, realTime, cand); bad {
				cur = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// checkIncremental runs the full differential battery on one history: the
// incremental checker against from-scratch on every prefix (both order
// modes), against brute on affordable whole words, and the interleaved-query
// modes (CheckExtending, AnyPrefixViolated) against their scratch forms.
func checkIncremental(t *testing.T, obj trace.Object, w trace.Word, label string) {
	t.Helper()
	if !wellFormed(w) {
		t.Fatalf("%s: generator produced a malformed word:\n%v", label, w)
	}
	for _, realTime := range []bool{true, false} {
		mode := "sc"
		if realTime {
			mode = "lin"
		}
		if at, bad := incrementalDisagrees(obj, realTime, w); bad {
			min := shrinkMismatch(obj, realTime, w)
			t.Fatalf("%s: incremental %s disagrees with from-scratch at prefix %d of\n%v\nminimal reproducer:\n%v",
				label, mode, at, w, min)
		}
		// Whole-word agreement with the exhaustive reference, where affordable.
		if ops := trace.Operations(w); len(ops) <= 6 {
			chk := NewIncremental(obj, realTime, w.Procs())
			var brute bool
			if realTime {
				brute = BruteLinearizable(obj, w)
			} else {
				brute = BruteSeqConsistent(obj, w)
			}
			if got := chk.CheckWord(w); got != brute {
				t.Fatalf("%s: incremental %s=%v, brute=%v on\n%v", label, mode, got, brute, w)
			}
		}
		// AnyPrefixViolated must match the literal per-prefix loop.
		chk := NewIncremental(obj, realTime, w.Procs())
		wantAny := false
		for cut := 1; cut <= len(w); cut++ {
			if cut < len(w) && w[cut-1].Kind != trace.Res {
				continue
			}
			if !scratchOK(obj, realTime, w[:cut]) {
				wantAny = true
				break
			}
		}
		if got := chk.AnyPrefixViolated(w); got != wantAny {
			t.Fatalf("%s: incremental %s AnyPrefixViolated=%v, scratch=%v on\n%v", label, mode, got, wantAny, w)
		}
	}
}

// randWord generates a well-formed history over obj: random interleaving,
// responses mostly drawn from a resolve-at-response sequential shadow (so
// most histories are linearizable) with a perturbation rate that manufactures
// violations, and a truncation that leaves trailing operations pending — the
// language family's word shapes, including truncated ones.
func randWord(obj trace.Object, n, steps int, perturb float64, rng *rand.Rand) trace.Word {
	type open struct {
		op  string
		arg trace.Value
	}
	pend := make([]*open, n)
	shadow := obj.Init()
	sigs := obj.Ops()
	var w trace.Word
	for len(w) < steps {
		p := rng.Intn(n)
		if pend[p] == nil {
			sig := sigs[rng.Intn(len(sigs))]
			arg := obj.RandArg(sig.Name, rng)
			pend[p] = &open{op: sig.Name, arg: arg}
			w = append(w, trace.Symbol{Proc: p, Kind: trace.Inv, Op: sig.Name, Val: arg})
			continue
		}
		o := pend[p]
		next, ret, ok := shadow.Apply(o.op, o.arg)
		if !ok {
			pend[p] = nil
			continue
		}
		shadow = next
		if rng.Float64() < perturb {
			ret = trace.Int(int64(rng.Intn(5)))
		}
		w = append(w, trace.Symbol{Proc: p, Kind: trace.Res, Op: o.op, Val: ret})
		pend[p] = nil
	}
	// Truncate at a random point: trailing invocations stay pending.
	if len(w) > 0 && rng.Intn(2) == 0 {
		w = w[:1+rng.Intn(len(w))]
	}
	return w
}

// linPointWord generates a history whose operations take effect at a random
// moment strictly inside their interval: each process invokes, later applies
// its operation to a sequential shadow, and later still responds. Responses
// therefore arrive out of linearization order, so a cached witness keeps
// being refuted and the residual search keeps running — the shape of the
// sketch histories the predictive monitors re-check. perturb replaces a
// response with a random value, manufacturing violations.
func linPointWord(obj trace.Object, n, steps int, perturb float64, rng *rand.Rand) trace.Word {
	type open struct {
		op      string
		arg     trace.Value
		ret     trace.Value
		applied bool
	}
	pend := make([]*open, n)
	shadow := obj.Init()
	sigs := obj.Ops()
	var w trace.Word
	for len(w) < steps {
		p := rng.Intn(n)
		o := pend[p]
		switch {
		case o == nil:
			sig := sigs[rng.Intn(len(sigs))]
			arg := obj.RandArg(sig.Name, rng)
			pend[p] = &open{op: sig.Name, arg: arg}
			w = append(w, trace.Symbol{Proc: p, Kind: trace.Inv, Op: sig.Name, Val: arg})
		case !o.applied:
			next, ret, ok := shadow.Apply(o.op, o.arg)
			if !ok {
				pend[p] = nil // the operation stays pending forever
				continue
			}
			if rng.Float64() < perturb {
				ret = trace.Int(int64(rng.Intn(5)))
			}
			shadow, o.ret, o.applied = next, ret, true
		default:
			w = append(w, trace.Symbol{Proc: p, Kind: trace.Res, Op: o.op, Val: o.ret})
			pend[p] = nil
		}
	}
	return w
}

func TestIncrementalMatchesScratchOnRandomWords(t *testing.T) {
	objs := []trace.Object{
		trace.Register(), trace.Counter(), trace.Queue(), trace.Stack(),
		trace.Ledger(), trace.Consensus(),
	}
	for _, obj := range objs {
		obj := obj
		t.Run(obj.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 120; trial++ {
				n := 2 + rng.Intn(2)
				steps := 4 + rng.Intn(10)
				perturb := []float64{0, 0.15, 0.5}[trial%3]
				w := randWord(obj, n, steps, perturb, rng)
				checkIncremental(t, obj, w, obj.Name())
			}
		})
	}
}

func TestIncrementalMatchesScratchOnSUTHistories(t *testing.T) {
	cases := []struct {
		name string
		obj  trace.Object
		mk   func(n int) sut.Impl
	}{
		{"queue/lock", trace.Queue(), func(n int) sut.Impl { return sut.NewLockQueue() }},
		{"queue/lifo", trace.Queue(), func(n int) sut.Impl { return sut.NewLIFOQueue() }},
		{"stack/fifo", trace.Stack(), func(n int) sut.Impl { return sut.NewFIFOStack() }},
		{"register/atomic", trace.Register(), func(n int) sut.Impl { return sut.NewAtomicRegister() }},
		{"register/stale", trace.Register(), func(n int) sut.Impl { return sut.NewStaleRegister(n, 2) }},
	}
	const n, opsPerProc = 2, 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				// Crash-free, then crashing process 1 mid-flight so its open
				// operation stays pending for the rest of the history.
				for _, crashStep := range []int{0, 9} {
					h := sutHistory(t, tc.obj, tc.mk(n), n, opsPerProc, seed, crashStep, 1)
					if len(trace.Operations(h)) > 7 {
						continue
					}
					checkIncremental(t, tc.obj, h, tc.name)
				}
			}
		})
	}
}

func TestIncrementalMatchesScratchOnABDHistories(t *testing.T) {
	obj := trace.Register()
	cases := []struct {
		name      string
		drops     []int
		crashStep int
		buggy     bool
	}{
		{name: "clean"},
		{name: "dropped", drops: []int{0, 2, 4, 7}},
		{name: "crash", crashStep: 25},
		{name: "crash+dropped", drops: []int{1, 3, 5}, crashStep: 40},
	}
	const n, opsPerProc = 3, 2
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				h := abdHistory(t, n, opsPerProc, seed, 0.4, msgnet.RandomOrder(seed), tc.drops, tc.crashStep, 1, tc.buggy)
				if len(trace.Operations(h)) > 6 {
					continue
				}
				checkIncremental(t, obj, h, tc.name)
			}
		})
	}
}

// TestIncrementalMatchesScratchOnLinPointWords runs the battery on histories
// whose responses arrive out of linearization order, where most accepting
// verdicts come from a residual search rather than the cached witness, then
// pins a long linearizable history prefix by prefix against the from-scratch
// check under real-time order.
func TestIncrementalMatchesScratchOnLinPointWords(t *testing.T) {
	for _, obj := range []trace.Object{trace.Register(), trace.Queue(), trace.Counter()} {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 80; trial++ {
			w := linPointWord(obj, 2+rng.Intn(3), 6+rng.Intn(10), []float64{0, 0.1}[trial%2], rng)
			checkIncremental(t, obj, w, obj.Name()+"/linpoint")
		}
	}
	obj := trace.Register()
	w := linPointWord(obj, 4, 200, 0, rand.New(rand.NewSource(1)))
	chk := NewIncremental(obj, true, 4)
	for i, s := range w {
		chk.Append(s)
		if got, want := chk.OK(), scratchOK(obj, true, w[:i+1]); got != want {
			t.Fatalf("prefix %d: incremental lin=%v, from-scratch=%v", i+1, got, want)
		}
	}
	if chk.searches == 0 {
		t.Fatal("the history never refuted the witness; it no longer exercises the residual search")
	}
}

package lang

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
)

// randomWord draws a well-formed word of the given length over processes
// 0..n-1, with arguments and responses from small domains so that words mix
// consistent and inconsistent cases.
func randomWord(rng *rand.Rand, obj trace.Object, symbols, n int) trace.Word {
	recs := []trace.Rec{"a", "b", "c"}
	var w trace.Word
	sigs := obj.Ops()
	pending := make([]string, n)
	for len(w) < symbols {
		p := rng.Intn(n)
		if op := pending[p]; op != "" {
			var ret trace.Value = trace.Unit{}
			switch op {
			case trace.OpRead:
				ret = trace.Int(rng.Intn(4))
			case trace.OpDeq:
				ret = trace.Int(rng.Intn(4)*2 - 1) // includes Empty (-1)
			case trace.OpGet:
				s := make(trace.Seq, rng.Intn(3))
				for i := range s {
					s[i] = recs[rng.Intn(3)]
				}
				ret = s
			}
			w = append(w, trace.NewRes(p, op, ret))
			pending[p] = ""
			continue
		}
		op := sigs[rng.Intn(len(sigs))].Name
		var arg trace.Value = trace.Unit{}
		switch op {
		case trace.OpWrite, trace.OpEnq:
			arg = trace.Int(rng.Intn(3))
		case trace.OpAppend:
			arg = recs[rng.Intn(3)]
		}
		w = append(w, trace.NewInv(p, op, arg))
		pending[p] = op
	}
	return w
}

// TestJudgeRenumbersProcesses pins the judge as the one place a word's
// processes are renumbered: LIN and SC over a register, a queue and a ledger
// report the same violation, prefix included, on a word whose process ids are
// negative, sparse or both (up to 1<<40, which no checker could size rows
// for) as on the densely numbered original, with and without a pool. Sparse
// ids below the word's length are judged in place, the others on a
// renumbered copy.
func TestJudgeRenumbersProcesses(t *testing.T) {
	relabels := map[string]func(int) int{
		"negative":        func(p int) int { return -1 - p },
		"sparse":          func(p int) int { return 1000*p + 3 },
		"sparse in range": func(p int) int { return 2*p + 1 },
		"mixed": func(p int) int {
			if p%2 == 0 {
				return -7*p - 1
			}
			return p << 40
		},
	}
	objects := []trace.Object{trace.Register(), trace.Queue(), trace.Ledger()}
	violations := 0
	for name, f := range relabels {
		rng := rand.New(rand.NewSource(5))
		for _, obj := range objects {
			for trial := 0; trial < 40; trial++ {
				w := randomWord(rng, obj, 8+rng.Intn(20), 2+rng.Intn(3))
				rw := w.Clone()
				for i := range rw {
					rw[i].Proc = f(rw[i].Proc)
				}
				for _, cond := range []Cond{LIN, SC} {
					j := Judge{Cond: cond, Object: obj}
					want := j.Violation(w, nil)
					if want != nil {
						violations++
					}
					for _, pool := range []*check.Pool{nil, check.NewPool()} {
						got := j.Violation(rw, pool)
						if (got == nil) != (want == nil) || got != nil && *got != *want {
							t.Fatalf("%s %s cond %d: relabelled %+v, original %+v on %v", name, obj.Name(), cond, got, want, rw)
						}
					}
				}
			}
		}
	}
	if violations == 0 {
		t.Fatal("no word violated its condition; the differential is vacuous")
	}
}

// TestDenseKeepsInRangeWords pins that only words naming a process outside
// [0,len(w)) are copied: any other word is judged as is.
func TestDenseKeepsInRangeWords(t *testing.T) {
	w := trace.NewB().Op(0, trace.OpRead, nil, trace.Int(0)).Op(3, trace.OpRead, nil, trace.Int(0)).Word()
	if got, n := dense(w); &got[0] != &w[0] || n != 4 {
		t.Errorf("in-range word: copied=%v, n=%d; want the word itself over 4 processes", &got[0] != &w[0], n)
	}
	w[0].Proc, w[1].Proc = 4, 4
	got, n := dense(w)
	if &got[0] == &w[0] || n != 2 || got[0].Proc != 1 || got[2].Proc != 0 || w[0].Proc != 4 {
		t.Errorf("out-of-range word %v renumbered to %v over %d processes; want a copy over 2", w, got, n)
	}
}

// judgeWord draws a word over obj for the SC judge's differential. Its core
// is a legal sequential run of up to ops operations by n processes, with
// arguments from small domains so values repeat. The run is laid out either
// around its linearization points, a linearizable word, or as a random merge
// of the processes' symbols, which keeps process order and so stays
// sequentially consistent. Then, each drawn at random: two responses of the
// same operation swap values, which can break both conditions; the word is
// cut short, leaving a pending tail; one process crashes, sending nothing
// from some point on; and the processes are renumbered to negative or sparse
// ids.
func judgeWord(rng *rand.Rand, obj trace.Object, n, ops int) trace.Word {
	type op struct {
		p        int
		name     string
		arg, ret trace.Value
	}
	sigs := obj.Ops()
	recs := []trace.Rec{"a", "b", "c"}
	st := obj.Init()
	var run []op
	for len(run) < ops {
		name := sigs[rng.Intn(len(sigs))].Name
		var arg trace.Value = trace.Unit{}
		switch name {
		case trace.OpWrite, trace.OpEnq, trace.OpPush:
			arg = trace.Int(rng.Intn(3))
		case trace.OpAppend:
			arg = recs[rng.Intn(len(recs))]
		}
		nxt, ret, ok := st.Apply(name, arg)
		if !ok {
			continue
		}
		st = nxt
		run = append(run, op{rng.Intn(n), name, arg, ret})
	}
	if rng.Intn(2) == 0 {
		i, j := rng.Intn(len(run)), rng.Intn(len(run))
		if run[i].name == run[j].name {
			run[i].ret, run[j].ret = run[j].ret, run[i].ret
		}
	}

	per := make([][]op, n) // each process's operations, in run order
	for _, o := range run {
		per[o.p] = append(per[o.p], o)
	}
	inv := func(o op) trace.Symbol { return trace.NewInv(o.p, o.name, o.arg) }
	res := func(o op) trace.Symbol { return trace.NewRes(o.p, o.name, o.ret) }
	var w trace.Word
	invoked, done := make([]int, n), make([]int, n)
	if rng.Intn(2) == 0 {
		// Around the linearization points: an operation is invoked before
		// its point and responds after it.
		linned := make([]int, n)
		for _, o := range run {
			p := o.p
			if done[p] < linned[p] {
				w = append(w, res(per[p][done[p]]))
				done[p]++
			}
			if invoked[p] == linned[p] {
				w = append(w, inv(o))
				invoked[p]++
			}
			linned[p]++
			for q := range per {
				switch {
				case rng.Intn(3) != 0:
				case done[q] < invoked[q] && done[q] < linned[q]:
					w = append(w, res(per[q][done[q]]))
					done[q]++
				case done[q] == invoked[q] && invoked[q] < len(per[q]):
					w = append(w, inv(per[q][invoked[q]]))
					invoked[q]++
				}
			}
		}
		for p := range per {
			if done[p] < invoked[p] {
				w = append(w, res(per[p][done[p]]))
			}
		}
	} else {
		// A random merge of the processes' symbol sequences.
		for left := 2 * len(run); left > 0; left-- {
			p := rng.Intn(n)
			for invoked[p] == len(per[p]) && done[p] == invoked[p] {
				p = (p + 1) % n
			}
			if done[p] < invoked[p] {
				w = append(w, res(per[p][done[p]]))
				done[p]++
			} else {
				w = append(w, inv(per[p][invoked[p]]))
				invoked[p]++
			}
		}
	}

	if rng.Intn(3) == 0 {
		w = w[:rng.Intn(len(w)+1)]
	}
	if rng.Intn(3) == 0 && len(w) > 0 {
		crashed, at := rng.Intn(n), rng.Intn(len(w))
		kept := w[:at]
		for _, s := range w[at:] {
			if s.Proc != crashed {
				kept = append(kept, s)
			}
		}
		w = kept
	}
	switch rng.Intn(3) {
	case 1:
		for i := range w {
			w[i].Proc = -1 - w[i].Proc
		}
	case 2:
		for i := range w {
			w[i].Proc = 1000*w[i].Proc + 3
		}
	}
	return w
}

// plainSC is the per-prefix SC pass the judge ran before SC rode LIN's pass:
// one sequential-consistency checker from the first symbol on.
func plainSC(obj trace.Object, w trace.Word) int {
	w, n := dense(w)
	return firstViolation(check.NewIncremental(obj, false, n), w, 0)
}

// bruteSC is the exhaustive reference: the first response-ended prefix, or
// w, that BruteSeqConsistent rejects, 0 if none.
func bruteSC(obj trace.Object, w trace.Word) int {
	w, _ = dense(w)
	for k := 1; k <= len(w); k++ {
		if (k == len(w) || w[k-1].Kind == trace.Res) && !check.BruteSeqConsistent(obj, w[:k]) {
			return k
		}
	}
	return 0
}

// diffSCJudge checks the SC judge on one word against the plain per-prefix
// pass, on a fresh checker and on pool, and against brute force when w has
// at most 7 operations. It returns the judge's LIN and SC prefixes.
func diffSCJudge(t testing.TB, obj trace.Object, w trace.Word, pool *check.Pool) (linK, scK int) {
	t.Helper()
	j := Judge{Cond: SC, Object: obj}
	want := plainSC(obj, w)
	if len(trace.Operations(w)) <= 7 {
		if b := bruteSC(obj, w); b != want {
			t.Fatalf("%s: plain SC pass says prefix %d, brute force %d on %v", obj.Name(), want, b, w)
		}
	}
	for _, p := range []*check.Pool{nil, pool} {
		if p != nil {
			p.Reclaim()
		}
		lin, sc := j.Violations(w, p)
		if got := prefixOf(sc); got != want {
			t.Fatalf("%s: SC judge says prefix %d, plain SC pass %d on %v", obj.Name(), got, want, w)
		}
		if v := j.Violation(w, p); prefixOf(v) != want || v != nil && v.Detail != "" {
			t.Fatalf("%s: SC Violation %+v, plain SC pass %d on %v", obj.Name(), v, want, w)
		}
		if l := (Judge{Cond: LIN, Object: obj}).Violation(w, p); prefixOf(l) != prefixOf(lin) {
			t.Fatalf("%s: Violations says LIN prefix %d, the LIN judge %d on %v", obj.Name(), prefixOf(lin), prefixOf(l), w)
		}
		linK, scK = prefixOf(lin), prefixOf(sc)
	}
	return linK, scK
}

// prefixOf is v's prefix, 0 for nil.
func prefixOf(v *Violation) int {
	if v == nil {
		return 0
	}
	return v.Prefix
}

// TestSCJudgeMatchesPlainPass is the differential of the SC judge, which runs
// LIN's pass and drops real-time order at LIN's first violation: on random
// register, queue, stack and ledger words (see judgeWord) its verdict and
// prefix must equal the plain per-prefix SC pass's, and brute force's on
// words of at most 7 operations. The words must reach every case: LIN and SC
// both accept, only SC accepts, both reject at one prefix, and SC rejects
// after LIN.
func TestSCJudgeMatchesPlainPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := check.NewPool()
	var both, scOnly, same, later, brute int
	for _, obj := range []trace.Object{trace.Register(), trace.Queue(), trace.Stack(), trace.Ledger()} {
		for trial := 0; trial < 1000; trial++ {
			w := judgeWord(rng, obj, 2+rng.Intn(3), 3+rng.Intn(10))
			if len(trace.Operations(w)) <= 7 {
				brute++
			}
			switch lin, sc := diffSCJudge(t, obj, w, pool); {
			case lin == 0:
				both++
			case sc == 0:
				scOnly++
			case sc == lin:
				same++
			default:
				later++
			}
		}
	}
	t.Logf("accepted by both %d, by SC only %d, rejected at LIN's prefix %d, after it %d; %d checked by brute force",
		both, scOnly, same, later, brute)
	if both == 0 || scOnly == 0 || same == 0 || later == 0 || brute == 0 {
		t.Fatal("a case of the differential was never drawn")
	}
}

// byteSource is a rand.Source that reads a fuzz input eight bytes at a time
// and then yields zeros, so the fuzzer's mutations steer judgeWord's draws.
type byteSource []byte

func (b *byteSource) Int63() int64 {
	var v uint64
	for i := 0; i < 8 && len(*b) > 0; i++ {
		v = v<<8 | uint64((*b)[0])
		*b = (*b)[1:]
	}
	return int64(v >> 1)
}

func (b *byteSource) Seed(int64) {}

// FuzzSCJudge drives the SC judge's differential (diffSCJudge) with words
// judgeWord draws from the fuzz input.
func FuzzSCJudge(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x01\x02queue-like bytes\xff\x10\x20\x30\x40\x50\x60\x70\x80\x90"))
	f.Add([]byte("\x03\x01\x07\x7f\xfe\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee"))
	objects := []trace.Object{trace.Register(), trace.Queue(), trace.Stack(), trace.Ledger()}
	pool := check.NewPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		rng := rand.New(&src)
		obj := objects[rng.Intn(len(objects))]
		diffSCJudge(t, obj, judgeWord(rng, obj, 1+rng.Intn(4), 1+rng.Intn(9)), pool)
	})
}

// TestClauseDetailsNameOperationsInPrefix pins the clause conditions'
// details to the prefix they report: each probe word's whole-word check
// names an operation beyond its first violating prefix, and the judge must
// name the one inside.
func TestClauseDetailsNameOperationsInPrefix(t *testing.T) {
	u := trace.Unit{}
	probes := []struct {
		cond   Cond
		w      trace.Word
		prefix int
		detail string
	}{
		{SEC, trace.NewB().
			Op(1, trace.OpRead, u, trace.Int(5)).
			Op(0, trace.OpInc, u, u).
			Op(0, trace.OpRead, u, trace.Int(0)).Word(),
			2, "p1#0 read(())=5 [0,1]: clause (4): returned 5 > 0 incs preceding or concurrent"},
		{WEC, trace.NewB().
			Op(0, trace.OpInc, u, u).
			Op(1, trace.OpInc, u, u).
			Inv(0, trace.OpRead, u).
			Inv(1, trace.OpRead, u).
			Res(1, trace.OpRead, trace.Int(0)).
			Res(0, trace.OpRead, trace.Int(0)).Word(),
			7, "p1#1 read(())=0 [5,6]: clause (1): returned 0 < 1 own preceding incs"},
		{EC, trace.NewB().
			Op(0, trace.OpGet, u, trace.Seq{"a"}).
			Op(1, trace.OpAppend, trace.Rec("a"), u).
			Op(1, trace.OpAppend, trace.Rec("b"), u).
			Op(1, trace.OpGet, u, trace.Seq{"b"}).Word(),
			2, `p0#0 get(())=[a] [0,1]: clause (1): position 0 returns record "a" appended fewer than 1 times`},
	}
	for _, p := range probes {
		v := Judge{Cond: p.cond}.Violation(p.w, nil)
		if v == nil || v.Prefix != p.prefix || v.Detail != p.detail {
			t.Errorf("cond %d on %v: got %+v, want prefix %d, detail %q", p.cond, p.w, v, p.prefix, p.detail)
		}
	}
}

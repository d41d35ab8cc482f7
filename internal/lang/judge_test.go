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

package check

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// lemma52Word is the paper's Lemma 5.2 witness: p1 increments, then p2 and p1
// alternately read 0 forever. Clause (1) fails at p1's first read.
func lemma52Word(rounds int) trace.Word {
	b := trace.NewB().Op(0, trace.OpInc, trace.Unit{}, trace.Unit{})
	for i := 0; i < rounds; i++ {
		b.Op(1, trace.OpRead, trace.Unit{}, trace.Int(0))
		b.Op(0, trace.OpRead, trace.Unit{}, trace.Int(0))
	}
	return b.Word()
}

func TestWECSafety(t *testing.T) {
	tests := []struct {
		name     string
		w        trace.Word
		violates bool
	}{
		{"empty", trace.Word{}, false},
		{
			"own inc then correct read",
			trace.NewB().
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
			false,
		},
		{
			"lemma 5.2: read below own incs",
			lemma52Word(1),
			true,
		},
		{
			"other process may lag",
			// p1 reads 0 after p0's inc: allowed by WEC (only own incs count).
			trace.NewB().
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(0)).Word(),
			false,
		},
		{
			"non-monotonic reads",
			trace.NewB().
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(2)).
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
			true,
		},
		{
			"monotonic reads above own incs",
			trace.NewB().
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(2)).
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(5)).Word(),
			false,
		},
		{
			"pending read ignored",
			trace.NewB().
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
				Inv(0, trace.OpRead, trace.Unit{}).Word(),
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := WECSafety(tt.w)
			if (v != nil) != tt.violates {
				t.Errorf("WECSafety = %v, want violation=%v", v, tt.violates)
			}
		})
	}
}

func TestSECSafety(t *testing.T) {
	tests := []struct {
		name     string
		w        trace.Word
		violates bool
	}{
		{
			"read bounded by concurrent incs",
			// p0's inc overlaps p1's read: read may return 0 or 1.
			trace.NewB().
				Inv(0, trace.OpInc, trace.Unit{}).
				Inv(1, trace.OpRead, trace.Unit{}).
				Res(0, trace.OpInc, trace.Unit{}).
				Res(1, trace.OpRead, trace.Int(1)).Word(),
			false,
		},
		{
			"clause 4: read above all incs",
			// No inc anywhere, read returns 1: weakly fine (monotone, above
			// own 0 incs) but strongly impossible.
			trace.NewB().
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
			true,
		},
		{
			"clause 4: read sees inc invoked after its response",
			trace.NewB().
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).Word(),
			true,
		},
		{
			"pending inc counts as concurrent",
			trace.NewB().
				Inv(0, trace.OpInc, trace.Unit{}).
				Word().Append(
				trace.NewInv(1, trace.OpRead, trace.Unit{}),
				trace.NewRes(1, trace.OpRead, trace.Int(1))),
			false,
		},
		{
			"wec violation surfaces through sec",
			lemma52Word(1),
			true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := SECSafety(tt.w)
			if (v != nil) != tt.violates {
				t.Errorf("SECSafety = %v, want violation=%v", v, tt.violates)
			}
		})
	}
}

func TestSECImpliesWEC(t *testing.T) {
	// SEC ⊂ WEC on safety clauses: anything passing SECSafety passes
	// WECSafety (Lemma 5.2 uses SEC_COUNT ⊂ WEC_COUNT).
	words := []trace.Word{
		lemma52Word(2),
		trace.NewB().Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
			Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
		trace.NewB().Op(0, trace.OpRead, trace.Unit{}, trace.Int(3)).Word(),
	}
	for _, w := range words {
		if SECSafety(w) == nil && WECSafety(w) != nil {
			t.Errorf("SEC-safe word fails WEC safety: %v", w)
		}
	}
}

func TestConverges(t *testing.T) {
	conv := trace.NewB().
		Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(0)).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
		Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).Word()
	if !Converges(conv) {
		t.Error("converged trace reported as diverging")
	}
	div := trace.NewB().
		Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(0)).Word()
	if Converges(div) {
		t.Error("diverging trace reported as converged")
	}
	if Converges(trace.Word{}) {
		t.Error("empty trace cannot witness convergence")
	}
}

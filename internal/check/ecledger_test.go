package check

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

func TestECLedgerSafety(t *testing.T) {
	tests := []struct {
		name     string
		w        trace.Word
		violates bool
	}{
		{"empty", trace.Word{}, false},
		{
			"lemma 6.5 prefix: append then empty gets",
			// append(a) completes, gets return ε: clause (1) holds because
			// the append can be permuted after the gets. (Clause (2) is what
			// fails in the limit.)
			trace.NewB().
				Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{}).
				Op(0, trace.OpGet, trace.Unit{}, trace.Seq{}).Word(),
			false,
		},
		{
			"chained gets",
			trace.NewB().
				Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).
				Op(0, trace.OpAppend, trace.Rec("b"), trace.Unit{}).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a", "b"}).Word(),
			false,
		},
		{
			"incomparable gets",
			// One get saw a-then-b, another saw b alone: no single append
			// order explains both.
			trace.NewB().
				Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(0, trace.OpAppend, trace.Rec("b"), trace.Unit{}).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a", "b"}).
				Op(2, trace.OpGet, trace.Unit{}, trace.Seq{"b"}).Word(),
			true,
		},
		{
			"get returns phantom record",
			trace.NewB().
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"ghost"}).Word(),
			true,
		},
		{
			"get doubles a single append",
			trace.NewB().
				Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a", "a"}).Word(),
			true,
		},
		{
			"pending append visible",
			trace.NewB().
				Inv(0, trace.OpAppend, trace.Rec("a")).
				Word().Append(
				trace.NewInv(1, trace.OpGet, trace.Unit{}),
				trace.NewRes(1, trace.OpGet, trace.Seq{"a"})),
			false,
		},
		{
			"duplicate appends allow duplicate records",
			trace.NewB().
				Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(1, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
				Op(2, trace.OpGet, trace.Unit{}, trace.Seq{"a", "a"}).Word(),
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := ECLedgerSafety(tt.w)
			if (v != nil) != tt.violates {
				t.Errorf("ECLedgerSafety = %v, want violation=%v", v, tt.violates)
			}
		})
	}
}

func TestECLedgerSafetyAgreesWithSC(t *testing.T) {
	// Every sequentially consistent ledger word satisfies EC clause (1),
	// since an SC witness is in particular a valid permutation.
	words := []trace.Word{
		trace.NewB().
			Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
			Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).Word(),
		trace.NewB().
			Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
			Op(1, trace.OpGet, trace.Unit{}, trace.Seq{}).Word(),
	}
	l := trace.Ledger()
	for _, w := range words {
		if SeqConsistent(l, w) && ECLedgerSafety(w) != nil {
			t.Errorf("SC word violates EC clause (1): %v", w)
		}
	}
}

func TestECLedgerConverges(t *testing.T) {
	conv := trace.NewB().
		Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).Word()
	if !ECLedgerConverges(conv) {
		t.Error("converged ledger trace reported diverging")
	}
	div := trace.NewB().
		Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{}).Word()
	if ECLedgerConverges(div) {
		t.Error("diverging ledger trace reported converged")
	}
}

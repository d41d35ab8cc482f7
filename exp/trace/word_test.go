package trace_test

import (
	"errors"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

func TestSymbolString(t *testing.T) {
	tests := []struct {
		name string
		sym  trace.Symbol
		want string
	}{
		{"inv write", trace.NewInv(0, "write", trace.Int(3)), "<0:write(3)"},
		{"res write", trace.NewRes(0, "write", trace.Unit{}), ">0:write=()"},
		{"inv read", trace.NewInv(2, "read", trace.Unit{}), "<2:read(())"},
		{"res read", trace.NewRes(2, "read", trace.Int(7)), ">2:read=7"},
		{"res get", trace.NewRes(1, "get", trace.Seq{"a", "b"}), ">1:get=[a·b]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.sym.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b trace.Value
		want bool
	}{
		{"int eq", trace.Int(3), trace.Int(3), true},
		{"int ne", trace.Int(3), trace.Int(4), false},
		{"int vs unit", trace.Int(0), trace.Unit{}, false},
		{"unit eq", trace.Unit{}, trace.Unit{}, true},
		{"rec eq", trace.Rec("x"), trace.Rec("x"), true},
		{"rec ne", trace.Rec("x"), trace.Rec("y"), false},
		{"seq eq", trace.Seq{"a", "b"}, trace.Seq{"a", "b"}, true},
		{"seq ne len", trace.Seq{"a"}, trace.Seq{"a", "b"}, false},
		{"seq ne elem", trace.Seq{"a", "b"}, trace.Seq{"a", "c"}, false},
		{"seq empty", trace.Seq{}, trace.Seq{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestProject(t *testing.T) {
	w := trace.NewB().
		Inv(0, "write", trace.Int(1)).
		Inv(1, "read", trace.Unit{}).
		Res(0, "write", trace.Unit{}).
		Res(1, "read", trace.Int(1)).
		Word()
	p0 := w.Project(0)
	if len(p0) != 2 || p0[0].Op != "write" || p0[1].Kind != trace.Res {
		t.Fatalf("Project(0) = %v", p0)
	}
	p1 := w.Project(1)
	if len(p1) != 2 || p1[0].Op != "read" {
		t.Fatalf("Project(1) = %v", p1)
	}
	if got := w.Procs(); got != 2 {
		t.Errorf("Procs() = %d, want 2", got)
	}
}

func TestWellFormed(t *testing.T) {
	tests := []struct {
		name string
		w    trace.Word
		ok   bool
	}{
		{"empty", trace.Word{}, true},
		{"single op", trace.NewB().Op(0, "read", trace.Unit{}, trace.Int(0)).Word(), true},
		{"pending inv", trace.NewB().Inv(0, "write", trace.Int(1)).Word(), true},
		{"interleaved", trace.NewB().
			Inv(0, "write", trace.Int(1)).Inv(1, "read", trace.Unit{}).
			Res(1, "read", trace.Int(0)).Res(0, "write", trace.Unit{}).Word(), true},
		{"double invocation", trace.NewB().
			Inv(0, "write", trace.Int(1)).Inv(0, "read", trace.Unit{}).Word(), false},
		{"orphan response", trace.NewB().Res(0, "read", trace.Int(0)).Word(), false},
		{"mismatched response", trace.NewB().
			Inv(0, "write", trace.Int(1)).Res(0, "read", trace.Int(1)).Word(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := trace.WellFormed(tt.w)
			if (err == nil) != tt.ok {
				t.Errorf("WellFormed(%v) error = %v, want ok=%v", tt.w, err, tt.ok)
			}
		})
	}
}

func TestWellFormedErrors(t *testing.T) {
	// The error text is part of the contract: drvmon and the explorer's
	// well-formedness divergences print it verbatim.
	tests := []struct {
		w    trace.Word
		want string
	}{
		{trace.NewB().Inv(0, "write", trace.Int(1)).Inv(0, "read", trace.Unit{}).Word(),
			`word is not well-formed: process 0 invokes "read" at position 1 while "write" from position 0 is pending`},
		{trace.NewB().Op(1, "read", trace.Unit{}, trace.Int(0)).Res(1, "read", trace.Int(0)).Word(),
			`word is not well-formed: process 1 responds "read" at position 2 with no pending invocation`},
		{trace.NewB().Inv(2, "write", trace.Int(1)).Res(2, "read", trace.Int(1)).Word(),
			`word is not well-formed: process 2 response "read" at position 1 does not match pending invocation "write"`},
		{trace.Word{{Proc: 0, Op: "read"}},
			`word is not well-formed: symbol at position 0 has invalid kind 0`},
	}
	for _, tt := range tests {
		err := trace.WellFormed(tt.w)
		if err == nil || err.Error() != tt.want || !errors.Is(err, trace.ErrNotWellFormed) {
			t.Errorf("WellFormed(%v) = %v, want %q", tt.w, err, tt.want)
		}
	}
}

func TestWellFormedAllocs(t *testing.T) {
	// Pending invocations are stored by value, so checking a word allocates
	// nothing per invocation (today the small pending map stays off the heap
	// entirely; the bound leaves room for one map allocation).
	b := trace.NewB()
	for k := 0; len(b.Word()) < 1000; k++ {
		p := k % 4
		b.Inv(p, "write", trace.Int(k))
		b.Inv((p+1)%4, "read", trace.Unit{})
		b.Res(p, "write", trace.Unit{})
		b.Res((p+1)%4, "read", trace.Int(k))
	}
	w := b.Word()
	if err := trace.WellFormed(w); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = trace.WellFormed(w) }); avg > 1 {
		t.Errorf("WellFormed on %d symbols averages %.0f allocs, want at most 1", len(w), avg)
	}
}

func TestOperations(t *testing.T) {
	w := trace.NewB().
		Inv(0, "write", trace.Int(5)).
		Inv(1, "read", trace.Unit{}).
		Res(0, "write", trace.Unit{}).
		Res(1, "read", trace.Int(5)).
		Inv(0, "read", trace.Unit{}).
		Word()
	ops := trace.Operations(w)
	if len(ops) != 3 {
		t.Fatalf("Operations returned %d ops, want 3", len(ops))
	}
	if ops[0].ID != (trace.OpID{Proc: 0, Idx: 0}) || ops[0].Op != "write" || ops[0].Res != 2 {
		t.Errorf("ops[0] = %v", ops[0])
	}
	if ops[1].ID != (trace.OpID{Proc: 1, Idx: 0}) || !ops[1].Ret.Equal(trace.Int(5)) {
		t.Errorf("ops[1] = %v", ops[1])
	}
	if !ops[2].Pending() || ops[2].ID != (trace.OpID{Proc: 0, Idx: 1}) {
		t.Errorf("ops[2] = %v", ops[2])
	}
	if len(trace.Complete(w)) != 2 {
		t.Errorf("Complete = %v", trace.Complete(w))
	}
	if len(trace.PendingOps(w)) != 1 {
		t.Errorf("PendingOps = %v", trace.PendingOps(w))
	}
}

func TestPrecedence(t *testing.T) {
	// p0: write(1) completes, then p1 reads: write ≺ read.
	w := trace.NewB().
		Op(0, "write", trace.Int(1), trace.Unit{}).
		Op(1, "read", trace.Unit{}, trace.Int(1)).
		Word()
	ops := trace.Operations(w)
	if !ops[0].Precedes(ops[1]) {
		t.Error("write should precede read")
	}
	if ops[1].Precedes(ops[0]) {
		t.Error("read should not precede write")
	}
	if ops[0].ConcurrentWith(ops[1]) {
		t.Error("sequential ops should not be concurrent")
	}

	// Overlapping operations are concurrent.
	w2 := trace.NewB().
		Inv(0, "write", trace.Int(1)).
		Inv(1, "read", trace.Unit{}).
		Res(0, "write", trace.Unit{}).
		Res(1, "read", trace.Int(1)).
		Word()
	ops2 := trace.Operations(w2)
	if !ops2[0].ConcurrentWith(ops2[1]) {
		t.Error("overlapping ops should be concurrent")
	}

	// A pending operation precedes nothing but can be preceded.
	w3 := trace.NewB().
		Op(0, "write", trace.Int(1), trace.Unit{}).
		Inv(1, "read", trace.Unit{}).
		Word()
	ops3 := trace.Operations(w3)
	if ops3[1].Precedes(ops3[0]) {
		t.Error("pending op must not precede")
	}
	if !ops3[0].Precedes(ops3[1]) {
		t.Error("complete op should precede later pending op")
	}
}

func TestOperationsPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Operations should panic on orphan response")
		}
	}()
	trace.Operations(trace.NewB().Res(0, "read", trace.Int(0)).Word())
}

func TestWordEqualClone(t *testing.T) {
	w := trace.NewB().Op(0, "inc", trace.Unit{}, trace.Unit{}).Op(1, "read", trace.Unit{}, trace.Int(1)).Word()
	c := w.Clone()
	if !w.Equal(c) {
		t.Error("clone should equal original")
	}
	c[0].Proc = 5
	if w.Equal(c) {
		t.Error("mutated clone should differ")
	}
	if w.Equal(w[:len(w)-1]) {
		t.Error("prefix should not equal word")
	}
}

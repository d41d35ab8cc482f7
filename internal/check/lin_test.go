package check

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

func TestLinearizableRegister(t *testing.T) {
	tests := []struct {
		name string
		w    trace.Word
		lin  bool
		sc   bool
	}{
		{
			name: "empty",
			w:    trace.Word{},
			lin:  true, sc: true,
		},
		{
			name: "sequential write then read",
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
			lin: true, sc: true,
		},
		{
			name: "stale read after completed write",
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(0)).Word(),
			lin: false, sc: true, // SC may reorder across processes
		},
		{
			name: "overlapping write and read old value",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Inv(1, trace.OpRead, trace.Unit{}).
				Res(0, trace.OpWrite, trace.Unit{}).
				Res(1, trace.OpRead, trace.Int(0)).Word(),
			lin: true, sc: true,
		},
		{
			name: "overlapping write and read new value",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Inv(1, trace.OpRead, trace.Unit{}).
				Res(0, trace.OpWrite, trace.Unit{}).
				Res(1, trace.OpRead, trace.Int(1)).Word(),
			lin: true, sc: true,
		},
		{
			name: "read value never written",
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(9)).Word(),
			lin: false, sc: false,
		},
		{
			name: "lemma 5.1 swapped execution: read before write invoked",
			// p2 reads r=1 completely before p1 even invokes write(1).
			w: trace.NewB().
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).Word(),
			lin: false, sc: true,
		},
		{
			name: "pending write justifies read",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(4)).
				Inv(1, trace.OpRead, trace.Unit{}).
				Res(1, trace.OpRead, trace.Int(4)).
				Word(),
			lin: true, sc: true,
		},
		{
			name: "new-old inversion across two readers",
			// w(1) completes; then p1 reads 1, afterwards p2 reads 0: not SC
			// for a single register? Process order allows p2's read first, so
			// SC holds; linearizability fails.
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
				Op(2, trace.OpRead, trace.Unit{}, trace.Int(0)).Word(),
			lin: false, sc: true,
		},
		{
			name: "same process cannot unread its own write",
			// p0 writes 1 then reads 0: violates process order, so not SC.
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(0, trace.OpRead, trace.Unit{}, trace.Int(0)).Word(),
			lin: false, sc: false,
		},
	}
	reg := trace.Register()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Linearizable(reg, tt.w); got != tt.lin {
				t.Errorf("Linearizable = %v, want %v", got, tt.lin)
			}
			if got := SeqConsistent(reg, tt.w); got != tt.sc {
				t.Errorf("SeqConsistent = %v, want %v", got, tt.sc)
			}
		})
	}
}

func TestLinearizableQueue(t *testing.T) {
	q := trace.Queue()
	// Herlihy–Wing style: two concurrent enqueues, then dequeues see a
	// consistent FIFO order.
	ok := trace.NewB().
		Inv(0, trace.OpEnq, trace.Int(1)).
		Inv(1, trace.OpEnq, trace.Int(2)).
		Res(1, trace.OpEnq, trace.Unit{}).
		Res(0, trace.OpEnq, trace.Unit{}).
		Op(0, trace.OpDeq, trace.Unit{}, trace.Int(2)).
		Op(1, trace.OpDeq, trace.Unit{}, trace.Int(1)).Word()
	if !Linearizable(q, ok) {
		t.Error("concurrent enqueues: either dequeue order should linearize")
	}
	// Dequeue returns an element enqueued strictly later: impossible.
	bad := trace.NewB().
		Op(0, trace.OpDeq, trace.Unit{}, trace.Int(5)).
		Op(1, trace.OpEnq, trace.Int(5), trace.Unit{}).Word()
	if Linearizable(q, bad) {
		t.Error("deq before matching enq must not linearize")
	}
	if !SeqConsistent(q, bad) {
		t.Error("deq before enq is SC: processes may be reordered")
	}
	// FIFO violation visible to one process: enq 1,2 by p0; p0 deqs 2 first.
	fifoBad := trace.NewB().
		Op(0, trace.OpEnq, trace.Int(1), trace.Unit{}).
		Op(0, trace.OpEnq, trace.Int(2), trace.Unit{}).
		Op(0, trace.OpDeq, trace.Unit{}, trace.Int(2)).Word()
	if SeqConsistent(q, fifoBad) {
		t.Error("single-process FIFO violation must not be SC")
	}
}

func TestLinearizableLedger(t *testing.T) {
	l := trace.Ledger()
	ok := trace.NewB().
		Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).
		Op(1, trace.OpAppend, trace.Rec("b"), trace.Unit{}).
		Op(0, trace.OpGet, trace.Unit{}, trace.Seq{"a", "b"}).Word()
	if !Linearizable(l, ok) {
		t.Error("sequential ledger history should linearize")
	}
	// Get misses a completed append.
	bad := trace.NewB().
		Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{}).
		Op(1, trace.OpGet, trace.Unit{}, trace.Seq{}).Word()
	if Linearizable(l, bad) {
		t.Error("get missing completed append must not linearize")
	}
	if !SeqConsistent(l, bad) {
		t.Error("get-before-append reordering is SC")
	}
}

func TestCrossValidateWithBrute(t *testing.T) {
	// The memoized search must agree with the exhaustive reference on random
	// small histories for every object.
	objects := []trace.Object{trace.Register(), trace.Counter(), trace.Queue(), trace.Stack()}
	rng := rand.New(rand.NewSource(2025))
	for _, obj := range objects {
		for trial := 0; trial < 120; trial++ {
			w := randomHistory(rng, obj, 7, 3)
			gotLin := Linearizable(obj, w)
			wantLin := BruteLinearizable(obj, w)
			if gotLin != wantLin {
				t.Fatalf("%s: Linearizable=%v brute=%v on %v", obj.Name(), gotLin, wantLin, w)
			}
			gotSC := SeqConsistent(obj, w)
			wantSC := BruteSeqConsistent(obj, w)
			if gotSC != wantSC {
				t.Fatalf("%s: SeqConsistent=%v brute=%v on %v", obj.Name(), gotSC, wantSC, w)
			}
			if gotLin && !gotSC {
				t.Fatalf("%s: linearizable but not SC on %v", obj.Name(), w)
			}
		}
	}
}

func TestLinearizablePrefixClosed(t *testing.T) {
	// Linearizability is prefix-closed on complete-operation boundaries: if a
	// word is linearizable, so is every prefix (Section 6.2 uses this to
	// justify that a non-linearizable prefix can never be fixed).
	rng := rand.New(rand.NewSource(7))
	reg := trace.Register()
	for trial := 0; trial < 60; trial++ {
		w := randomHistory(rng, reg, 8, 3)
		if !Linearizable(reg, w) {
			continue
		}
		for cut := 0; cut <= len(w); cut++ {
			if !Linearizable(reg, w[:cut]) {
				t.Fatalf("prefix %v of linearizable %v not linearizable", w[:cut], w)
			}
		}
	}
}

// randomHistory generates a random well-formed concurrent history of the
// object where responses are drawn from plausible values (not necessarily
// consistent ones, so both accepting and rejecting cases occur).
func randomHistory(rng *rand.Rand, obj trace.Object, symbols, n int) trace.Word {
	var w trace.Word
	sigs := obj.Ops()
	pendingOp := make([]string, n)
	for len(w) < symbols {
		p := rng.Intn(n)
		if pendingOp[p] == "" {
			sig := sigs[rng.Intn(len(sigs))]
			w = append(w, trace.NewInv(p, sig.Name, randomArg(rng, sig.Name)))
			pendingOp[p] = sig.Name
		} else {
			w = append(w, trace.NewRes(p, pendingOp[p], randomRet(rng, pendingOp[p])))
			pendingOp[p] = ""
		}
	}
	return w
}

// randomArg draws arguments from a small domain so that random histories mix
// consistent and inconsistent cases.
func randomArg(rng *rand.Rand, op string) trace.Value {
	switch op {
	case trace.OpWrite, trace.OpEnq, trace.OpPush:
		return trace.Int(rng.Intn(3))
	case trace.OpAppend:
		return trace.Rec([]string{"a", "b", "c"}[rng.Intn(3)])
	default:
		return trace.Unit{}
	}
}

func randomRet(rng *rand.Rand, op string) trace.Value {
	switch op {
	case trace.OpWrite, trace.OpInc, trace.OpAppend, trace.OpEnq, trace.OpPush:
		return trace.Unit{}
	case trace.OpRead:
		return trace.Int(rng.Intn(4))
	case trace.OpDeq, trace.OpPop:
		return trace.Int(rng.Intn(4)*2 - 1) // includes Empty (-1)
	case trace.OpGet:
		n := rng.Intn(3)
		s := make(trace.Seq, n)
		for i := range s {
			s[i] = trace.Rec([]string{"a", "b", "c"}[rng.Intn(3)])
		}
		return s
	default:
		return trace.Unit{}
	}
}

func TestLinearizableTrickyHistories(t *testing.T) {
	// The explorer uses this checker as its differential oracle, so the
	// known-tricky corners need direct coverage: operations left pending by
	// crashes, response/invocation mismatches, and reads racing writes.
	reg := trace.Register()
	ctr := trace.Counter()
	led := trace.Ledger()
	tests := []struct {
		name string
		obj  trace.Object
		w    trace.Word
		lin  bool
		sc   bool
	}{
		{
			name: "two writers crash mid-operation, read may see either",
			obj:  reg,
			// p0 and p1 both have pending writes (crashed before the
			// response); p2's read of 2 is justified by completing p1's.
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Inv(1, trace.OpWrite, trace.Int(2)).
				Op(2, trace.OpRead, trace.Unit{}, trace.Int(2)).Word(),
			lin: true, sc: true,
		},
		{
			name: "crashed write cannot justify a third value",
			obj:  reg,
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Op(2, trace.OpRead, trace.Unit{}, trace.Int(7)).Word(),
			lin: false, sc: false,
		},
		{
			name: "pending write taken then dropped: two reads disagree",
			obj:  reg,
			// The read of 1 requires linearizing the pending write; the
			// later read of 0 then regresses for the same reader — the
			// pending operation cannot be both taken and not taken.
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(0)).Word(),
			lin: false, sc: false,
		},
		{
			name: "read racing two overlapping writes may see the later one",
			obj:  reg,
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Inv(1, trace.OpWrite, trace.Int(2)).
				Inv(2, trace.OpRead, trace.Unit{}).
				Res(0, trace.OpWrite, trace.Unit{}).
				Res(1, trace.OpWrite, trace.Unit{}).
				Res(2, trace.OpRead, trace.Int(1)).Word(),
			lin: true, sc: true,
		},
		{
			name: "write completed before read invoked is not overtakable",
			obj:  reg,
			// w(1) ≺ w(2) ≺ read: the read must see 2 under
			// linearizability but SC may reorder the second write after it.
			w: trace.NewB().
				Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
				Op(0, trace.OpWrite, trace.Int(2), trace.Unit{}).
				Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).Word(),
			lin: false, sc: true,
		},
		{
			name: "counter read may include a crashed pending inc",
			obj:  ctr,
			w: trace.NewB().
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
				Inv(1, trace.OpInc, trace.Unit{}).
				Op(2, trace.OpRead, trace.Unit{}, trace.Int(2)).Word(),
			lin: true, sc: true,
		},
		{
			name: "counter read cannot exceed completed plus pending incs",
			obj:  ctr,
			w: trace.NewB().
				Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
				Inv(1, trace.OpInc, trace.Unit{}).
				Op(2, trace.OpRead, trace.Unit{}, trace.Int(3)).Word(),
			lin: false, sc: false,
		},
		{
			name: "ledger get sees crashed pending append",
			obj:  led,
			w: trace.NewB().
				Inv(0, trace.OpAppend, trace.Rec("a")).
				Op(1, trace.OpGet, trace.Unit{}, trace.Seq{"a"}).Word(),
			lin: true, sc: true,
		},
		{
			name: "ledger gets must agree on one order of concurrent appends",
			obj:  led,
			// Both appends overlap, but the two gets return incomparable
			// orders — no single witness sequence exists.
			w: trace.NewB().
				Inv(0, trace.OpAppend, trace.Rec("a")).
				Inv(1, trace.OpAppend, trace.Rec("b")).
				Res(0, trace.OpAppend, trace.Unit{}).
				Res(1, trace.OpAppend, trace.Unit{}).
				Op(2, trace.OpGet, trace.Unit{}, trace.Seq{"a", "b"}).
				Op(2, trace.OpGet, trace.Unit{}, trace.Seq{"b", "a"}).Word(),
			lin: false, sc: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Linearizable(tt.obj, tt.w); got != tt.lin {
				t.Errorf("Linearizable = %v, want %v", got, tt.lin)
			}
			if got := SeqConsistent(tt.obj, tt.w); got != tt.sc {
				t.Errorf("SeqConsistent = %v, want %v", got, tt.sc)
			}
		})
	}
}

func TestIllFormedHistoriesRejectedUpstream(t *testing.T) {
	// Duplicate responses and responses without invocations are not
	// consistency violations but well-formedness ones: the checkers assume
	// WellFormed input (Operations panics otherwise), and the explorer's
	// wellformed check screens histories before this oracle ever runs.
	// Pin the division of labour.
	cases := []struct {
		name string
		w    trace.Word
	}{
		{
			name: "duplicate response",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Res(0, trace.OpWrite, trace.Unit{}).
				Res(0, trace.OpWrite, trace.Unit{}).Word(),
		},
		{
			name: "response with no invocation",
			w:    trace.NewB().Res(1, trace.OpRead, trace.Int(0)).Word(),
		},
		{
			name: "response names a different operation",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Res(0, trace.OpRead, trace.Int(1)).Word(),
		},
		{
			name: "second invocation while pending",
			w: trace.NewB().
				Inv(0, trace.OpWrite, trace.Int(1)).
				Inv(0, trace.OpWrite, trace.Int(2)).Word(),
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := trace.WellFormed(tt.w); err == nil {
				t.Fatalf("WellFormed accepted %v", tt.w)
			}
		})
	}
}

package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

func TestRegister(t *testing.T) {
	r := trace.Register()
	st := r.Init()
	st2, ret, ok := st.Apply(trace.OpRead, trace.Unit{})
	if !ok || !ret.Equal(trace.Int(0)) {
		t.Fatalf("initial read = %v ok=%v", ret, ok)
	}
	st3, ret, ok := st2.Apply(trace.OpWrite, trace.Int(7))
	if !ok || !ret.Equal(trace.Unit{}) {
		t.Fatalf("write = %v ok=%v", ret, ok)
	}
	// Old state is unchanged (immutability).
	_, ret, _ = st2.Apply(trace.OpRead, trace.Unit{})
	if !ret.Equal(trace.Int(0)) {
		t.Errorf("old state mutated: read = %v", ret)
	}
	_, ret, _ = st3.Apply(trace.OpRead, trace.Unit{})
	if !ret.Equal(trace.Int(7)) {
		t.Errorf("new state read = %v, want 7", ret)
	}
	if _, _, ok := st.Apply("bogus", trace.Unit{}); ok {
		t.Error("unknown op should be rejected")
	}
	if _, _, ok := st.Apply(trace.OpWrite, trace.Unit{}); ok {
		t.Error("write with non-int arg should be rejected")
	}
}

func TestCounter(t *testing.T) {
	c := trace.Counter()
	st := c.Init()
	for i := 0; i < 3; i++ {
		st, _, _ = st.Apply(trace.OpInc, trace.Unit{})
	}
	_, ret, ok := st.Apply(trace.OpRead, trace.Unit{})
	if !ok || !ret.Equal(trace.Int(3)) {
		t.Errorf("read after 3 incs = %v", ret)
	}
}

func TestLedger(t *testing.T) {
	l := trace.Ledger()
	st := l.Init()
	_, ret, ok := st.Apply(trace.OpGet, trace.Unit{})
	if !ok || !ret.Equal(trace.Seq{}) {
		t.Fatalf("initial get = %v", ret)
	}
	st, _, _ = st.Apply(trace.OpAppend, trace.Rec("a"))
	st, _, _ = st.Apply(trace.OpAppend, trace.Rec("b"))
	_, ret, _ = st.Apply(trace.OpGet, trace.Unit{})
	if !ret.Equal(trace.Seq{"a", "b"}) {
		t.Errorf("get = %v, want [a·b]", ret)
	}
}

func TestQueue(t *testing.T) {
	q := trace.Queue()
	st := q.Init()
	_, ret, _ := st.Apply(trace.OpDeq, trace.Unit{})
	if !ret.Equal(trace.Empty) {
		t.Errorf("deq on empty = %v", ret)
	}
	st, _, _ = st.Apply(trace.OpEnq, trace.Int(10))
	st, _, _ = st.Apply(trace.OpEnq, trace.Int(20))
	st, ret, _ = st.Apply(trace.OpDeq, trace.Unit{})
	if !ret.Equal(trace.Int(10)) {
		t.Errorf("first deq = %v, want 10 (FIFO)", ret)
	}
	st, ret, _ = st.Apply(trace.OpDeq, trace.Unit{})
	if !ret.Equal(trace.Int(20)) {
		t.Errorf("second deq = %v, want 20", ret)
	}
	_, ret, _ = st.Apply(trace.OpDeq, trace.Unit{})
	if !ret.Equal(trace.Empty) {
		t.Errorf("deq after drain = %v", ret)
	}
}

func TestStack(t *testing.T) {
	s := trace.Stack()
	st := s.Init()
	st, _, _ = st.Apply(trace.OpPush, trace.Int(10))
	st, _, _ = st.Apply(trace.OpPush, trace.Int(20))
	st, ret, _ := st.Apply(trace.OpPop, trace.Unit{})
	if !ret.Equal(trace.Int(20)) {
		t.Errorf("first pop = %v, want 20 (LIFO)", ret)
	}
	st, ret, _ = st.Apply(trace.OpPop, trace.Unit{})
	if !ret.Equal(trace.Int(10)) {
		t.Errorf("second pop = %v, want 10", ret)
	}
	_, ret, _ = st.Apply(trace.OpPop, trace.Unit{})
	if !ret.Equal(trace.Empty) {
		t.Errorf("pop on empty = %v", ret)
	}
}

func TestStateKeysDistinguish(t *testing.T) {
	// Distinct states must have distinct keys or the memoized checkers would
	// conflate them.
	q := trace.Queue()
	a := q.Init()
	b, _, _ := a.Apply(trace.OpEnq, trace.Int(1))
	c, _, _ := b.Apply(trace.OpEnq, trace.Int(2))
	d, _, _ := a.Apply(trace.OpEnq, trace.Int(12))
	keys := map[string]bool{key(a): true, key(b): true, key(c): true, key(d): true}
	if len(keys) != 4 {
		t.Errorf("queue state keys collide: %v %v %v %v", key(a), key(b), key(c), key(d))
	}
	// enq(1);enq(2) must differ from enq(12).
	if key(c) == key(d) {
		t.Errorf("ambiguous encoding: %q vs %q", key(c), key(d))
	}
	// Records may hold any byte: [a, a|a] must differ from [a|a, a], and
	// [""] from the empty ledger.
	l := trace.Ledger().Init()
	appendAll := func(recs ...trace.Value) trace.State { return applyAll(l, trace.OpAppend, recs...) }
	ledgers := []trace.State{appendAll(), appendAll(trace.Rec("")), appendAll(trace.Rec("a"), trace.Rec("a|a")),
		appendAll(trace.Rec("a|a"), trace.Rec("a")), appendAll(trace.Rec("a"), trace.Rec("a"), trace.Rec("a"))}
	ledKeys := map[string]bool{}
	for _, st := range ledgers {
		ledKeys[key(st)] = true
	}
	if len(ledKeys) != len(ledgers) {
		t.Errorf("ledger state keys collide: %d distinct of %d", len(ledKeys), len(ledgers))
	}
}

// key is a state's AppendKey encoding as a string.
func key(st trace.State) string { return string(st.AppendKey(nil)) }

// applyAll applies op once per argument, in order, starting from st.
func applyAll(st trace.State, op string, args ...trace.Value) trace.State {
	for _, a := range args {
		st, _, _ = st.Apply(op, a)
	}
	return st
}

// TestAppendKeyEncodings pins every built-in state encoding byte for byte:
// the memo keys of checker searches are built from these bytes, so a change
// to one must be deliberate.
func TestAppendKeyEncodings(t *testing.T) {
	u := trace.Unit{}
	q := applyAll(trace.Queue().Init(), trace.OpEnq, trace.Int(1), trace.Int(12), trace.Int(-3), trace.Int(4))
	q, _, _ = q.Apply(trace.OpDeq, u)
	s := applyAll(trace.Stack().Init(), trace.OpPush, trace.Int(1), trace.Int(12), trace.Int(-3))
	s, _, _ = s.Apply(trace.OpPop, u)
	v := trace.Vector(3).Init()
	v, _, _ = v.Apply(trace.OpUpd(1), trace.Int(42))
	for _, tc := range []struct {
		st   trace.State
		want string
	}{
		{trace.Register().Init(), "r0"},
		{applyAll(trace.Register().Init(), trace.OpWrite, trace.Int(-7)), "r-7"},
		{trace.Counter().Init(), "c0"},
		{applyAll(trace.Counter().Init(), trace.OpInc, u, u, u), "c3"},
		{trace.Consensus().Init(), "u"},
		{applyAll(trace.Consensus().Init(), trace.OpPropose, trace.Int(5), trace.Int(9)), "d5"},
		{trace.Vector(3).Init(), "v[0·0·0]"},
		{v, "v[0·42·0]"},
		{trace.Queue().Init(), "q"},
		{q, "q12,-3,4"},
		{trace.Stack().Init(), "s"},
		{s, "s1,12"},
		{trace.Ledger().Init(), "l"},
		{applyAll(trace.Ledger().Init(), trace.OpAppend, trace.Rec("")), "l0:"},
		{applyAll(trace.Ledger().Init(), trace.OpAppend, trace.Rec("r1"), trace.Rec("a:b"), trace.Rec("a|a"), trace.Rec(""), trace.Rec("|")),
			"l2:r13:a:b3:a|a0:1:|"},
	} {
		// Append to a non-empty buffer: the encoding must extend b, not
		// replace it.
		if got := string(tc.st.AppendKey([]byte("x"))); got != "x"+tc.want {
			t.Errorf("AppendKey = %q, want %q", got, "x"+tc.want)
		}
	}
}

func TestRun(t *testing.T) {
	reg := trace.Register()
	good := trace.Operations(trace.NewB().
		Op(0, trace.OpWrite, trace.Int(3), trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(3)).
		Word())
	if !trace.SeqValid(reg, good) {
		t.Error("valid sequential history rejected")
	}
	bad := trace.Operations(trace.NewB().
		Op(0, trace.OpWrite, trace.Int(3), trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(4)).
		Word())
	if trace.SeqValid(reg, bad) {
		t.Error("invalid sequential history accepted")
	}
}

func TestRandArgTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, obj := range []trace.Object{trace.Register(), trace.Counter(), trace.Ledger(), trace.Queue(), trace.Stack()} {
		for _, sig := range obj.Ops() {
			v := obj.RandArg(sig.Name, rng)
			st := obj.Init()
			if _, _, ok := st.Apply(sig.Name, v); !ok {
				t.Errorf("%s.%s rejects its own RandArg %v", obj.Name(), sig.Name, v)
			}
		}
	}
}

// answerer is the optional response test the ledger state offers checker
// searches.
type answerer interface {
	Answers(op string, arg, ret trace.Value) (trace.State, bool)
}

// checkAnswers asserts that st answers op(arg) with ret exactly as Apply
// followed by Equal does, reaching the same state.
func checkAnswers(t *testing.T, st trace.State, op string, arg, ret trace.Value) bool {
	t.Helper()
	a, ok := st.(answerer)
	if !ok {
		t.Fatalf("%T has no Answers", st)
	}
	wantNext, got, applied := st.Apply(op, arg)
	want := applied && got.Equal(ret)
	next, ok := a.Answers(op, arg, ret)
	if ok != want {
		t.Fatalf("state %q: Answers(%s, %v, %v) = %v, Apply+Equal = %v", key(st), op, arg, ret, ok, want)
	}
	if ok && next.(trace.Interned).ID() != wantNext.(trace.Interned).ID() {
		t.Fatalf("state %q: Answers(%s, %v) reaches %q, Apply reaches %q", key(st), op, arg, key(next), key(wantNext))
	}
	return ok
}

// TestLedgerAnswersMatchesApply pins the ledger's Answers to Apply followed
// by Equal: on the cases the parent-link walk could get wrong, and on every
// node of random interned ledgers up to depth 64, against responses drawn
// from the tree itself, their off-by-one truncations and extensions, single
// record changes and values that are not record lists.
func TestLedgerAnswersMatchesApply(t *testing.T) {
	u := trace.Unit{}
	root := trace.Ledger().Init()
	ambiguous := applyAll(root, trace.OpAppend, trace.Rec("a"), trace.Rec("a|a"))
	for _, tc := range []struct {
		name string
		st   trace.State
		op   string
		arg  trace.Value
		ret  trace.Value
		want bool
	}{
		{"[a, a|a] answers itself", ambiguous, trace.OpGet, u, trace.Seq{"a", "a|a"}, true},
		{"[a, a|a] is not [a|a, a]", ambiguous, trace.OpGet, u, trace.Seq{"a|a", "a"}, false},
		{"[a, a|a] is not [a, a, a]", ambiguous, trace.OpGet, u, trace.Seq{"a", "a", "a"}, false},
		{"empty answers nil", root, trace.OpGet, u, trace.Seq(nil), true},
		{"empty answers []", root, trace.OpGet, u, trace.Seq{}, true},
		{"empty is not [a]", root, trace.OpGet, u, trace.Seq{"a"}, false},
		{"one short", ambiguous, trace.OpGet, u, trace.Seq{"a"}, false},
		{"one long", ambiguous, trace.OpGet, u, trace.Seq{"a", "a|a", "a"}, false},
		{"a record is not a list", ambiguous, trace.OpGet, u, trace.Rec("a"), false},
		{"unit is not a list", root, trace.OpGet, u, u, false},
		{"nil is not a list", root, trace.OpGet, u, nil, false},
		{"append answers unit", ambiguous, trace.OpAppend, trace.Rec("b"), u, true},
		{"append does not answer a list", ambiguous, trace.OpAppend, trace.Rec("b"), trace.Seq{"a"}, false},
		{"append needs a record", ambiguous, trace.OpAppend, trace.Int(1), u, false},
		{"unknown operation", ambiguous, "bogus", u, u, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAnswers(t, tc.st, tc.op, tc.arg, tc.ret); got != tc.want {
				t.Errorf("answered %v, want %v", got, tc.want)
			}
		})
	}

	rng := rand.New(rand.NewSource(1))
	for tree := 0; tree < 20; tree++ {
		// A small record alphabet makes appends reconverge on interned
		// nodes, so sibling lists share long prefixes.
		recs := []trace.Rec{"a", "b", "a|a", "", "ab"}
		states := []trace.State{trace.Ledger().Init()}
		lists := []trace.Seq{nil}
		for len(states) < 200 {
			i := rng.Intn(len(states))
			if len(lists[i]) >= 64 {
				continue
			}
			r := recs[rng.Intn(len(recs))]
			if !checkAnswers(t, states[i], trace.OpAppend, r, u) {
				t.Fatal("append refused unit")
			}
			next, _, _ := states[i].Apply(trace.OpAppend, r)
			states = append(states, next)
			lists = append(lists, append(lists[i][:len(lists[i]):len(lists[i])], r))
		}
		for i, st := range states {
			if !checkAnswers(t, st, trace.OpGet, u, lists[i]) {
				t.Fatalf("state %q refused its own list %v", key(st), lists[i])
			}
			checkAnswers(t, st, trace.OpGet, u, lists[rng.Intn(len(lists))])
			if l := lists[i]; len(l) > 0 {
				checkAnswers(t, st, trace.OpGet, u, l[:len(l)-1])
				checkAnswers(t, st, trace.OpGet, u, l[1:])
				changed := l.Clone()
				changed[rng.Intn(len(changed))] = recs[rng.Intn(len(recs))]
				checkAnswers(t, st, trace.OpGet, u, changed)
			}
			checkAnswers(t, st, trace.OpGet, u, append(lists[i].Clone(), recs[rng.Intn(len(recs))]))
			checkAnswers(t, st, trace.OpGet, u, recs[rng.Intn(len(recs))])
		}
	}
}

// TestLedgerAnswersDoesNotAllocate pins the point of Answers: a complete get
// is tested against a deep ledger without building its record list.
func TestLedgerAnswersDoesNotAllocate(t *testing.T) {
	st := trace.Ledger().Init()
	recs := make(trace.Seq, 100)
	for i := range recs {
		recs[i] = trace.Rec(fmt.Sprintf("r%d", i))
		st, _, _ = st.Apply(trace.OpAppend, recs[i])
	}
	a := st.(answerer)
	var ret trace.Value = recs
	var arg trace.Value = trace.Unit{}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := a.Answers(trace.OpGet, arg, ret); !ok {
			t.Fatal("depth-100 ledger refused its own list")
		}
	})
	if allocs != 0 {
		t.Errorf("Answers(get) at depth 100 allocates %v times, want 0", allocs)
	}
}

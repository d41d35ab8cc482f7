package trace_test

import (
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
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true, d.Key(): true}
	if len(keys) != 4 {
		t.Errorf("queue state keys collide: %v %v %v %v", a.Key(), b.Key(), c.Key(), d.Key())
	}
	// enq(1);enq(2) must differ from enq(12).
	if c.Key() == d.Key() {
		t.Errorf("ambiguous encoding: %q vs %q", c.Key(), d.Key())
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

package check

// Tests of the memo's two key paths: an interned state is keyed by its id,
// any other by its AppendKey bytes (buildKey).

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// keyPathObject wraps its object's states in keyPathState, which hides ID,
// so a search over it keys its memo by the AppendKey encoding.
type keyPathObject struct{ trace.Object }

func (o keyPathObject) Init() trace.State { return keyPathState{o.Object.Init()} }

// keyPathState forwards Apply and AppendKey to its state but not ID.
type keyPathState struct{ st trace.State }

func (s keyPathState) Apply(op string, arg trace.Value) (trace.State, trace.Value, bool) {
	next, ret, ok := s.st.Apply(op, arg)
	return keyPathState{next}, ret, ok
}

func (s keyPathState) AppendKey(b []byte) []byte { return s.st.AppendKey(b) }

// TestIDPathMatchesKeyPath runs the one-shot search over the histories
// TestOneShotNodeCounts pins, once as is and once through keyPathObject:
// the id-keyed and key-keyed memos must give the same verdicts and visit the
// same number of nodes, under both orders.
func TestIDPathMatchesKeyPath(t *testing.T) {
	for _, obj := range []trace.Object{trace.Queue(), trace.Stack(), trace.Ledger()} {
		if in, ok := obj.Init().(trace.Interned); !ok || in.ID() == 0 {
			t.Fatalf("%s: the Init root reports no id; the id path is not exercised", obj.Name())
		}
		if _, ok := (keyPathObject{obj}).Init().(trace.Interned); ok {
			t.Fatalf("%s: the wrapped root reports an id; the key path is not exercised", obj.Name())
		}
	}
	histories := 0
	nodeCountHistories(t, func(name string, obj trace.Object, w trace.Word) {
		ops := trace.Operations(w)
		if len(ops) == 0 {
			return
		}
		histories++
		for _, realTime := range []bool{true, false} {
			idc, keyc := oneShot(obj, ops, realTime), oneShot(keyPathObject{obj}, ops, realTime)
			idOK, keyOK := idc.search(), keyc.search()
			if idOK != keyOK || idc.nodes != keyc.nodes {
				t.Fatalf("%s realTime=%v: id path (ok=%v, %d nodes), key path (ok=%v, %d nodes) on %v",
					name, realTime, idOK, idc.nodes, keyOK, keyc.nodes, w)
			}
		}
	})
	if histories == 0 {
		t.Fatal("no histories compared")
	}
}

// TestLedgerRecordsWithSeparator pins a history whose two record lists
// [a, a|a] and [a|a, a] once shared the memo key "la|a|a|": appends of "a"
// and "a|a" run concurrently with a get that returns [a|a, a]. Placing "a"
// first fails the get and memoized the shared key, so the other order was
// never tried and every memoized checker said NO. The history is
// linearizable and sequentially consistent; the memoized checkers must
// agree with brute force on the interned path and the key path alike.
func TestLedgerRecordsWithSeparator(t *testing.T) {
	w := trace.Word{
		trace.NewInv(0, trace.OpAppend, trace.Rec("a")),
		trace.NewInv(1, trace.OpAppend, trace.Rec("a|a")),
		trace.NewInv(2, trace.OpGet, trace.Unit{}),
		trace.NewRes(0, trace.OpAppend, trace.Unit{}),
		trace.NewRes(1, trace.OpAppend, trace.Unit{}),
		trace.NewRes(2, trace.OpGet, trace.Seq{"a|a", "a"}),
	}
	if !BruteLinearizable(trace.Ledger(), w) || !BruteSeqConsistent(trace.Ledger(), w) {
		t.Fatal("brute force rejects the history")
	}
	ops := trace.Operations(w)
	for _, obj := range []trace.Object{trace.Ledger(), keyPathObject{trace.Ledger()}} {
		name := "interned"
		if _, ok := obj.(keyPathObject); ok {
			name = "key path"
		}
		if !LinearizableOps(obj, ops) {
			t.Errorf("%s: LinearizableOps = false, brute force true", name)
		}
		if !SeqConsistentOps(obj, ops) {
			t.Errorf("%s: SeqConsistentOps = false, brute force true", name)
		}
		for _, realTime := range []bool{true, false} {
			if !checkWord(NewIncremental(obj, realTime, 3), w) {
				t.Errorf("%s realTime=%v: checkWord = false, brute force true", name, realTime)
			}
		}
	}
}

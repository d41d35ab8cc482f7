package check

// Tests of the memo's two key paths: an interned state is keyed by its id,
// any other by its AppendKey bytes (buildKey).

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// keyPathObject wraps its object's states in keyPathState, which hides ID,
// so a search over it keys its memo by the AppendKey encoding.
type keyPathObject struct{ trace.Object }

func (o keyPathObject) Init() trace.State { return keyPath(o.Object.Init()) }

// keyPathState forwards Apply and AppendKey to its state but not ID.
type keyPathState struct{ st trace.State }

// keyPath wraps st, forwarding the pruning interface it implements too, so
// both paths prune alike.
func keyPath(st trace.State) trace.State {
	switch st.(type) {
	case listState:
		return keyPathList{keyPathState{st}}
	case logState:
		return keyPathLog{keyPathState{st}}
	}
	return keyPathState{st}
}

func (s keyPathState) Apply(op string, arg trace.Value) (trace.State, trace.Value, bool) {
	next, ret, ok := s.st.Apply(op, arg)
	return keyPath(next), ret, ok
}

func (s keyPathState) AppendKey(b []byte) []byte { return s.st.AppendKey(b) }

type keyPathList struct{ keyPathState }

func (s keyPathList) ListOps() (string, string, bool) { return s.st.(listState).ListOps() }
func (s keyPathList) AppendItems(dst []trace.Int) []trace.Int {
	return s.st.(listState).AppendItems(dst)
}

type keyPathLog struct{ keyPathState }

func (s keyPathLog) LogOps() (string, string) { return s.st.(logState).LogOps() }

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

	// Histories over 16 processes pack 4 bits per front, and process 0 runs
	// 17 operations, so a search that places its 16th moves from the packed
	// memo to the byte memo partway through. Some search must memoize nodes
	// in both.
	rng := rand.New(rand.NewSource(3))
	mixed := 0
	for _, obj := range []trace.Object{trace.Queue(), trace.Stack(), trace.Ledger()} {
		for trial := 0; trial < 20; trial++ {
			w := overflowWord(rng, obj)
			ops := trace.Operations(w)
			for _, realTime := range []bool{true, false} {
				idc, keyc := oneShot(obj, ops, realTime), oneShot(keyPathObject{obj}, ops, realTime)
				idOK, keyOK := idc.search(), keyc.search()
				if idOK != keyOK || idc.nodes != keyc.nodes {
					t.Fatalf("%s realTime=%v: id path (ok=%v, %d nodes), key path (ok=%v, %d nodes) on %v",
						obj.Name(), realTime, idOK, idc.nodes, keyOK, keyc.nodes, w)
				}
				if idc.width != 4 {
					t.Fatalf("%s: %d bits per front over %d processes, want 4", obj.Name(), idc.width, idc.n)
				}
				if idc.packed.count > 0 && len(idc.memo.offs) > 0 {
					mixed++
				}
			}
		}
	}
	t.Logf("%d of 120 overflow searches memoized nodes under both keys", mixed)
	if mixed == 0 {
		t.Fatal("no search memoized nodes under both keys")
	}
}

// overflowWord draws a word over 16 processes from a legal sequential run in
// which process 0 runs 17 operations, processes 1 and 2 three each and
// process 15 one, with arguments from small domains. Half the time two
// responses of process 0's operations swap values; then the processes'
// symbols merge at random, which keeps the word sequentially consistent
// unless the swap broke it.
func overflowWord(rng *rand.Rand, obj trace.Object) trace.Word {
	type op struct {
		name     string
		arg, ret trace.Value
	}
	active := []int{0, 1, 2, 15}
	var order []int
	for i, k := range []int{17, 3, 3, 1} {
		for range k {
			order = append(order, active[i])
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	per := make([][]op, 16)
	sigs := obj.Ops()
	st := obj.Init()
	for _, p := range order {
		name := sigs[rng.Intn(len(sigs))].Name
		var arg trace.Value = trace.Unit{}
		switch name {
		case trace.OpEnq, trace.OpPush:
			arg = trace.Int(rng.Intn(3))
		case trace.OpAppend:
			arg = []trace.Rec{"a", "b", "c"}[rng.Intn(3)]
		}
		nxt, ret, ok := st.Apply(name, arg)
		if !ok {
			panic(fmt.Sprintf("%s: %s(%v) does not apply", obj.Name(), name, arg))
		}
		st = nxt
		per[p] = append(per[p], op{name, arg, ret})
	}
	if i, j := rng.Intn(17), rng.Intn(17); rng.Intn(2) == 0 && per[0][i].name == per[0][j].name {
		per[0][i].ret, per[0][j].ret = per[0][j].ret, per[0][i].ret
	}
	var w trace.Word
	invoked, done := make([]int, 16), make([]int, 16)
	for left := 2 * len(order); left > 0; left-- {
		p := active[rng.Intn(len(active))]
		for done[p] == len(per[p]) {
			p = active[rng.Intn(len(active))]
		}
		if o := per[p][done[p]]; invoked[p] > done[p] {
			w = append(w, trace.NewRes(p, o.name, o.ret))
			done[p]++
		} else {
			w = append(w, trace.NewInv(p, o.name, o.arg))
			invoked[p]++
		}
	}
	return w
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

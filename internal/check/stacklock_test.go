package check

import (
	"os"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// readTrace loads a JSON-lines trace from testdata.
func readTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSCPerPrefixStackLockHistory pins the cost of sequential consistency on
// the 64-symbol history the correct lock stack exhibits under the scenario in
// the trace's note. Checked whole, the one-shot search visits 13,629,470
// nodes (14 s on a 2-vCPU machine), which once dominated obj-family sweeps.
// The per-prefix forward pass every judge runs reaches the same verdict in
// 143 nodes: each response only extends the witness the previous prefix
// left, so the search never starts cold on the whole history.
func TestSCPerPrefixStackLockHistory(t *testing.T) {
	tr := readTrace(t, "stack-lock-sc.jsonl")
	w := tr.Word
	if len(w) != 64 {
		t.Fatalf("history has %d symbols, want 64", len(w))
	}
	obj := trace.Stack()
	chk := NewIncremental(obj, false, tr.Meta.N)
	if k := firstViolation(chk, w); k != 0 {
		t.Fatalf("lock-stack history rejected at prefix %d; the lock stack is linearizable, hence sequentially consistent", k)
	}
	if chk.nodes > 1000 {
		t.Errorf("per-prefix pass visited %d search nodes, want at most 1,000 (143 measured)", chk.nodes)
	}

	// The exhaustive reference agrees on a prefix small enough for it.
	short := w
	for k := range w {
		if len(trace.Operations(w[:k])) > 6 {
			short = w[:k-1]
			break
		}
	}
	want := true
	for k := 1; k <= len(short); k++ {
		if (k == len(short) || short[k-1].Kind == trace.Res) && !BruteSeqConsistent(obj, short[:k]) {
			want = false
		}
	}
	if got := firstViolation(NewIncremental(obj, false, tr.Meta.N), short) == 0; got != want || !want {
		t.Errorf("on the %d-symbol prefix: per-prefix pass accepts=%v, brute force accepts=%v (want both true)", len(short), got, want)
	}
}

// TestLinThenSCQueueLockHistory pins the cost of the SC judge on the
// 64-symbol history the correct lock queue exhibits under the scenario in
// the trace's note. The judge runs LIN's per-prefix pass and drops real-time
// order only at LIN's first violation; the lock queue is linearizable, so
// the LIN pass accepts every prefix and the judge runs no SC search. It visits
// 136,874 nodes, 136,270 of them in the whole word's residual search. The
// plain per-prefix SC pass, which this test does not run, visits 10,016,816
// nodes on the word: 6 s on a 2-vCPU machine, most of the 10 s its explorer
// replay took.
func TestLinThenSCQueueLockHistory(t *testing.T) {
	tr := readTrace(t, "queue-lock-sc.jsonl")
	w := tr.Word
	if len(w) != 64 {
		t.Fatalf("history has %d symbols, want 64", len(w))
	}
	chk := NewIncremental(trace.Queue(), true, tr.Meta.N)
	if k := firstViolation(chk, w); k != 0 {
		t.Fatalf("lock-queue history rejected at prefix %d; the lock queue is linearizable", k)
	}
	if chk.nodes > 150000 {
		t.Errorf("LIN pass visited %d search nodes, want at most 150,000 (136,874 measured)", chk.nodes)
	}
}

package sketch

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/drv-go/drv/exp/trace"
)

// triple builds a test triple for process proc, operation idx, with the
// given per-process announce counts as its view.
func triple(proc, idx int, op string, counts ...int) trace.Triple {
	return trace.Triple{
		ID:   trace.OpID{Proc: proc, Idx: idx},
		Inv:  trace.NewInv(proc, op, nil),
		Res:  trace.NewRes(proc, op, trace.Unit{}),
		View: trace.NewView(counts),
	}
}

func TestBuildEmpty(t *testing.T) {
	w, err := trace.BuildSketch(2, nil, resolveOp)
	if err != nil || len(w) != 0 {
		t.Errorf("empty build: %v, %v", w, err)
	}
}

func TestBuildSequential(t *testing.T) {
	// Two ops with strictly growing views: full precedence.
	trs := []trace.Triple{
		triple(0, 0, "op", 1, 0),
		triple(1, 0, "op", 1, 1),
	}
	w, err := trace.BuildSketch(2, trs, resolveOp)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: <0 >0 <1 >1.
	if len(w) != 4 {
		t.Fatalf("built word has %d symbols, want 4: %v", len(w), w)
	}
	ops := trace.Operations(w)
	if len(ops) != 2 {
		t.Fatalf("built word has %d operations", len(ops))
	}
	if !ops[0].Precedes(ops[1]) {
		t.Error("smaller view's operation should precede")
	}
}

func TestBuildSameViewConcurrent(t *testing.T) {
	// Two ops with the same view: both invocations before both responses.
	trs := []trace.Triple{
		triple(0, 0, "op", 1, 1),
		triple(1, 0, "op", 1, 1),
	}
	w, err := trace.BuildSketch(2, trs, resolveOp)
	if err != nil {
		t.Fatal(err)
	}
	ops := trace.Operations(w)
	if len(ops) != 2 {
		t.Fatalf("%d operations", len(ops))
	}
	if !ops[0].ConcurrentWith(ops[1]) {
		t.Errorf("same-view operations should be concurrent: %v", w)
	}
}

func TestBuildPendingInvocations(t *testing.T) {
	// A view containing an invocation with no published triple yields a
	// pending operation.
	trs := []trace.Triple{
		triple(1, 0, "op", 1, 1), // sees p0's announce, p0's op unfinished
	}
	w, err := trace.BuildSketch(2, trs, resolveOp)
	if err != nil {
		t.Fatal(err)
	}
	pend := trace.PendingOps(w)
	if len(pend) != 1 || pend[0].ID.Proc != 0 {
		t.Errorf("expected p0's operation pending, got %v (word %v)", pend, w)
	}
}

func TestBuildRejectsViewMissingOwnInvocation(t *testing.T) {
	trs := []trace.Triple{triple(0, 0, "op", 0, 1)} // view says p0 announced nothing
	if _, err := trace.BuildSketch(2, trs, resolveOp); err == nil {
		t.Error("expected rejection of a view missing its own invocation")
	}
}

func TestBuildRejectsIncomparableViews(t *testing.T) {
	trs := []trace.Triple{
		triple(0, 0, "op", 1, 0),
		triple(1, 0, "op", 0, 1), // incomparable with the first
	}
	_, err := trace.BuildSketch(2, trs, resolveOp)
	if err == nil {
		t.Fatal("expected incomparable-view error")
	}
	if !strings.Contains(err.Error(), trace.ErrIncomparableViews.Error()) {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestTheorem61PrecedencePreservation is the property test for Theorem
// 6.1(1): operations ordered in the input stay ordered in the sketch. The
// input here is the view structure itself — precedence in x(E) implies the
// earlier operation's view is contained in every view snapshotted after it,
// in particular the later operation's.
func TestTheorem61PrecedencePreservation(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := int64(seedRaw)
		// Build a chain of k sequential operations across 3 processes with
		// strictly growing views, interleaved with some same-view pairs.
		k := int(seed%5) + 2
		counts := []int{0, 0, 0}
		var trs []trace.Triple
		idx := []int{0, 0, 0}
		for i := 0; i < k; i++ {
			p := int((seed >> (i % 8)) % 3)
			counts[p]++
			trs = append(trs, triple(p, idx[p], "op", counts[0], counts[1], counts[2]))
			idx[p]++
		}
		w, err := trace.BuildSketch(3, trs, resolveOp)
		if err != nil {
			return false
		}
		ops := trace.Operations(w)
		// The triples were created in strictly growing view order, so each
		// complete operation must precede or be concurrent with later ones —
		// never follow them.
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				if ops[j].Precedes(ops[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// resolveOp returns invocation symbols for any identifier.
func resolveOp(id trace.OpID) trace.Symbol { return trace.NewInv(id.Proc, "op", nil) }

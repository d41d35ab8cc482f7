package sut

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/sched"
)

// The eventual objects' safety clauses, judged on every response-ended
// prefix.
var (
	wecJudge = lang.Judge{Cond: lang.WEC}
	secJudge = lang.Judge{Cond: lang.SEC}
	ecJudge  = lang.Judge{Cond: lang.EC}
)

// run drives n processes through the service with the given policy seed and
// returns the exhibited history.
func run(t *testing.T, n int, svc adversary.Service, seed int64, maxSteps int) trace.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	for i := 0; i < n; i++ {
		i := i
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					return
				}
				svc.Send(p, v)
				svc.Recv(p)
			}
		})
	}
	defer rt.Stop()
	for rt.Steps() < maxSteps {
		if !rt.Step() {
			break
		}
	}
	return svc.History()
}

func seeds() []int64 { return []int64{1, 2, 3, 4, 5} }

func TestAtomicRegisterLinearizable(t *testing.T) {
	for _, seed := range seeds() {
		svc := NewService(3, NewAtomicRegister(), NewRandomWorkload(trace.Register(), 3, 8, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if len(h) == 0 {
			t.Fatalf("seed %d: empty history", seed)
		}
		if !check.Linearizable(trace.Register(), h) {
			t.Errorf("seed %d: atomic register produced non-linearizable history:\n%v", seed, h)
		}
	}
}

func TestStaleRegisterViolatesLinearizability(t *testing.T) {
	// Some schedule must expose a stale read; all schedules must remain
	// "plausible" to an order-free observer (values really were written).
	caught := false
	for _, seed := range seeds() {
		svc := NewService(3, NewStaleRegister(3, 4), NewRandomWorkload(trace.Register(), 3, 8, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if !check.Linearizable(trace.Register(), h) {
			caught = true
		}
	}
	if !caught {
		t.Error("no schedule exposed the stale-read bug; increase ops or seeds")
	}
}

func TestSplitRegisterSCButNotLinearizable(t *testing.T) {
	// The partitioned register is the sharpest real-time-only bug: histories
	// stay sequentially consistent (initial-value reads serialize first, then
	// per-process blocks), yet a read of 0 after a completed foreign write
	// breaks linearizability. Drive p2's reads after both writers finish by
	// letting every process run its script to completion.
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpWrite, Val: trace.Int(1)},
			{Op: trace.OpRead},
		},
		{
			{Op: trace.OpWrite, Val: trace.Int(2)},
			{Op: trace.OpRead},
		},
		{
			{Op: trace.OpRead},
			{Op: trace.OpRead},
		},
	}
	linViolated := false
	for _, seed := range seeds() {
		svc := NewService(3, NewSplitRegister(3), NewScriptWorkload(scripts))
		h := run(t, 3, svc, seed, 100_000)
		if !check.SeqConsistent(trace.Register(), h) {
			t.Errorf("seed %d: split register history not sequentially consistent:\n%v", seed, h)
		}
		if !check.Linearizable(trace.Register(), h) {
			linViolated = true
		}
	}
	if !linViolated {
		t.Error("no schedule exposed the split register's real-time violation")
	}
}

func TestSnapshotCounterLinearizable(t *testing.T) {
	for _, kind := range []CounterArray{CounterAtomic, CounterAADGMS} {
		for _, seed := range seeds() {
			svc := NewService(3, NewSnapshotCounter(3, kind), NewRandomWorkload(trace.Counter(), 3, 6, 0.5, seed))
			h := run(t, 3, svc, seed, 100_000)
			if !check.Linearizable(trace.Counter(), h) {
				t.Errorf("kind %d seed %d: snapshot counter non-linearizable:\n%v", kind, seed, h)
			}
		}
	}
}

func TestCollectCounterSECSafe(t *testing.T) {
	// Collect reads need not linearize, but they satisfy the SEC safety
	// clauses: no under-read, monotone, no over-read.
	for _, seed := range seeds() {
		svc := NewService(3, NewCollectCounter(3), NewRandomWorkload(trace.Counter(), 3, 10, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if v := secJudge.Violation(h, nil); v != nil {
			t.Errorf("seed %d: collect counter violated SEC safety: %v\n%v", seed, v, h)
		}
	}
}

func TestInflatedCounterOverReads(t *testing.T) {
	// The inflation must eventually violate SEC clause (4).
	caught := false
	for _, seed := range seeds() {
		svc := NewService(3, NewInflatedCounter(3, 2), NewRandomWorkload(trace.Counter(), 3, 10, 0.6, seed))
		h := run(t, 3, svc, seed, 100_000)
		if secJudge.Violation(h, nil) != nil {
			caught = true
		}
		// But never under-read or lose monotonicity (WEC clauses hold).
		if v := wecJudge.Violation(h, nil); v != nil {
			t.Errorf("seed %d: inflated counter violated WEC safety clause: %v", seed, v)
		}
	}
	if !caught {
		t.Error("inflation never observed as an over-read")
	}
}

func TestStuckCounterDoesNotConverge(t *testing.T) {
	// Quiescent tail: everyone incs twice, then reads repeatedly. The
	// published total stalls at n, never reaching 2n.
	n := 3
	script := make([][]trace.Symbol, n)
	for i := range script {
		script[i] = []trace.Symbol{
			{Op: trace.OpInc}, {Op: trace.OpInc},
			{Op: trace.OpRead}, {Op: trace.OpRead}, {Op: trace.OpRead},
		}
	}
	svc := NewService(n, NewStuckCounter(n), NewScriptWorkload(script))
	h := run(t, n, svc, 42, 100_000)
	if check.Converges(h) {
		t.Error("stuck counter converged to the true total despite lost increments")
	}
	if v := wecJudge.Violation(h, nil); v != nil {
		t.Errorf("stuck counter broke a safety clause it should preserve: %v", v)
	}
}

func TestLockLedgerLinearizable(t *testing.T) {
	for _, seed := range seeds() {
		svc := NewService(3, NewLockLedger(), NewRandomWorkload(trace.Ledger(), 3, 6, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if !check.Linearizable(trace.Ledger(), h) {
			t.Errorf("seed %d: lock ledger non-linearizable:\n%v", seed, h)
		}
	}
}

func TestSnapshotLedgerReordersUnderInterleaving(t *testing.T) {
	// The round-robin assembly returns non-prefix-compatible gets once
	// processes' appends interleave; some schedule must expose an EC-clause-1
	// violation.
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpAppend, Val: trace.Rec("a1")},
			{Op: trace.OpAppend, Val: trace.Rec("a2")},
			{Op: trace.OpGet},
		},
		{
			{Op: trace.OpGet},
			{Op: trace.OpAppend, Val: trace.Rec("b")},
			{Op: trace.OpGet},
		},
		{
			{Op: trace.OpGet},
			{Op: trace.OpGet},
		},
	}
	caught := false
	for seed := int64(1); seed <= 40 && !caught; seed++ {
		svc := NewService(3, NewSnapshotLedger(3), NewScriptWorkload(scripts))
		h := run(t, 3, svc, seed, 100_000)
		if ecJudge.Violation(h, nil) != nil {
			caught = true
		}
	}
	if !caught {
		t.Error("snapshot ledger never produced incompatible gets")
	}
}

func TestForkedLedgerForks(t *testing.T) {
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpAppend, Val: trace.Rec("a")},
			{Op: trace.OpGet},
		},
		{
			{Op: trace.OpAppend, Val: trace.Rec("b")},
			{Op: trace.OpGet},
		},
	}
	caught := false
	for _, seed := range seeds() {
		svc := NewService(2, NewForkedLedger(2), NewScriptWorkload(scripts))
		h := run(t, 2, svc, seed, 100_000)
		if ecJudge.Violation(h, nil) != nil {
			caught = true
		}
	}
	if !caught {
		t.Error("forked ledger's incompatible gets went undetected")
	}
}

func TestLossyLedgerDoesNotConverge(t *testing.T) {
	n := 2
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpAppend, Val: trace.Rec("a1")},
			{Op: trace.OpAppend, Val: trace.Rec("a2")},
			{Op: trace.OpGet},
		},
		{
			{Op: trace.OpGet},
			{Op: trace.OpGet},
		},
	}
	svc := NewService(n, NewLossyLedger(2), NewScriptWorkload(scripts))
	h := run(t, n, svc, 9, 100_000)
	if check.ECLedgerConverges(h) {
		t.Error("lossy ledger converged despite dropping records")
	}
	if v := ecJudge.Violation(h, nil); v != nil {
		t.Errorf("lossy ledger broke ordering safety it should preserve: %v", v)
	}
}

func TestLockQueueLinearizable(t *testing.T) {
	for _, seed := range seeds() {
		svc := NewService(3, NewLockQueue(), NewRandomWorkload(trace.Queue(), 3, 6, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if !check.Linearizable(trace.Queue(), h) {
			t.Errorf("seed %d: lock queue non-linearizable:\n%v", seed, h)
		}
	}
}

func TestLIFOQueueCaught(t *testing.T) {
	// Sequential script: enq 1, enq 2, deq must return 1; the bug returns 2,
	// violating even sequential consistency.
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpEnq, Val: trace.Int(1)},
			{Op: trace.OpEnq, Val: trace.Int(2)},
			{Op: trace.OpDeq},
			{Op: trace.OpDeq},
		},
	}
	svc := NewService(1, NewLIFOQueue(), NewScriptWorkload(scripts))
	h := run(t, 1, svc, 1, 100_000)
	if check.SeqConsistent(trace.Queue(), h) {
		t.Errorf("LIFO queue bug not caught:\n%v", h)
	}
}

func TestFIFOStackCaught(t *testing.T) {
	// Sequential script: push 1, push 2, pop must return 2; the bug returns
	// 1, violating even sequential consistency — the mirror image of the
	// LIFO queue.
	scripts := [][]trace.Symbol{
		{
			{Op: trace.OpPush, Val: trace.Int(1)},
			{Op: trace.OpPush, Val: trace.Int(2)},
			{Op: trace.OpPop},
			{Op: trace.OpPop},
		},
	}
	svc := NewService(1, NewFIFOStack(), NewScriptWorkload(scripts))
	h := run(t, 1, svc, 1, 100_000)
	if check.SeqConsistent(trace.Stack(), h) {
		t.Errorf("FIFO stack bug not caught:\n%v", h)
	}
}

func TestLockStackLinearizable(t *testing.T) {
	for _, seed := range seeds() {
		svc := NewService(3, NewLockStack(), NewRandomWorkload(trace.Stack(), 3, 6, 0.5, seed))
		h := run(t, 3, svc, seed, 100_000)
		if !check.Linearizable(trace.Stack(), h) {
			t.Errorf("seed %d: lock stack non-linearizable:\n%v", seed, h)
		}
	}
}

func TestServiceHistoryWellFormedPerProcess(t *testing.T) {
	svc := NewService(3, NewAtomicRegister(), NewRandomWorkload(trace.Register(), 3, 10, 0.5, 77))
	h := run(t, 3, svc, 77, 100_000)
	for p := 0; p < 3; p++ {
		local := h.Project(p)
		for k, s := range local {
			wantKind := trace.Inv
			if k%2 == 1 {
				wantKind = trace.Res
			}
			if s.Kind != wantKind {
				t.Fatalf("process %d local word does not alternate at %d: %v", p, k, local)
			}
		}
	}
}

// TestTimedWrapsSUT is the deployment form of Lemma 6.1: wrapping a SUT in
// the timed adversary Aτ preserves correctness — the outer (monitored)
// history of a correct implementation stays linearizable, and views arrive
// on every response.
func TestTimedWrapsSUT(t *testing.T) {
	n := 3
	for _, seed := range seeds() {
		inner := NewService(n, NewAtomicRegister(), NewRandomWorkload(trace.Register(), n, 6, 0.5, seed))
		tau := adversary.NewTimed(n, inner, adversary.ArrayAtomic)

		rt := sched.New(n, sched.Random(seed))
		views := 0
		for i := 0; i < n; i++ {
			rt.Spawn(i, func(p *sched.Proc) {
				for {
					v, ok := tau.NextInv(p.ID)
					if !ok {
						return
					}
					tau.Send(p, v)
					resp := tau.Recv(p)
					if resp.View == nil {
						t.Errorf("timed response carries no view")
						return
					}
					views++
				}
			})
		}
		for rt.Steps() < 200_000 {
			if !rt.Step() {
				break
			}
		}
		rt.Stop()

		outer := tau.History()
		innerH := tau.InnerHistory()
		if !check.Linearizable(trace.Register(), outer) {
			t.Errorf("seed %d: outer history of wrapped atomic register not linearizable", seed)
		}
		if !check.Linearizable(trace.Register(), innerH) {
			t.Errorf("seed %d: inner history of wrapped atomic register not linearizable", seed)
		}
		if views == 0 {
			t.Error("no views observed")
		}
	}
}

// TestInnerLinImpliesOuterLin checks the operational half of Lemma 6.1 on
// histories: outer operations contain their inner operations, so outer
// real-time precedence implies inner precedence; a linearization of the
// inner history therefore serves for the outer one.
func TestInnerLinImpliesOuterLin(t *testing.T) {
	n := 3
	for _, seed := range seeds() {
		inner := NewService(n, NewStaleRegister(n, 3), NewRandomWorkload(trace.Register(), n, 6, 0.5, seed))
		tau := adversary.NewTimed(n, inner, adversary.ArrayAtomic)
		rt := sched.New(n, sched.Random(seed))
		for i := 0; i < n; i++ {
			rt.Spawn(i, func(p *sched.Proc) {
				for {
					v, ok := tau.NextInv(p.ID)
					if !ok {
						return
					}
					tau.Send(p, v)
					tau.Recv(p)
				}
			})
		}
		for rt.Steps() < 200_000 {
			if !rt.Step() {
				break
			}
		}
		rt.Stop()
		if check.Linearizable(trace.Register(), tau.InnerHistory()) &&
			!check.Linearizable(trace.Register(), tau.History()) {
			t.Errorf("seed %d: inner linearizable but outer not — contradicts operation nesting", seed)
		}
	}
}

// ScriptWorkload replays fixed per-process operation scripts: the
// regression tests' workload when they need a specific interleaving potential.
type ScriptWorkload struct {
	scripts [][]trace.Symbol
	pos     []int
}

// NewScriptWorkload builds a workload from per-process invocation scripts.
// Only the Op and Val fields of the symbols are used.
func NewScriptWorkload(scripts [][]trace.Symbol) *ScriptWorkload {
	return &ScriptWorkload{scripts: scripts, pos: make([]int, len(scripts))}
}

// Next implements Workload.
func (w *ScriptWorkload) Next(id int) (string, trace.Value, bool) {
	if w.pos[id] >= len(w.scripts[id]) {
		return "", nil, false
	}
	s := w.scripts[id][w.pos[id]]
	w.pos[id]++
	return s.Op, s.Val, true
}

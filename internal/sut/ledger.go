package sut

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// LockLedger is the correct ledger implementation (after [3]): a shared
// record list guarded by a spinlock, so append and get take effect atomically
// inside the critical section. Every history is linearizable with respect to
// the sequential ledger.
type LockLedger struct {
	mu   lock
	recs mem.Register[trace.Seq]
}

// NewLockLedger returns an empty ledger.
func NewLockLedger() *LockLedger { return &LockLedger{} }

// Name implements Impl.
func (*LockLedger) Name() string { return "ledger/lock" }

// Reset implements Impl.
func (l *LockLedger) Reset(int) { *l = LockLedger{} }

// Invoke implements Impl.
func (l *LockLedger) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpAppend:
		l.mu.acquire(p)
		cur := l.recs.Read(p)
		l.recs.Write(p, append(cur.Clone(), arg.(trace.Rec)))
		l.mu.release(p)
		return trace.Unit{}
	case trace.OpGet:
		l.mu.acquire(p)
		cur := l.recs.Read(p)
		l.mu.release(p)
		return cur.Clone()
	default:
		panic(fmt.Sprintf("sut: ledger does not implement %q", op))
	}
}

// SnapshotLedger is a seeded-bug, coordination-free ledger: appenders publish
// their local append sequences in per-process cells and get() assembles the
// global list from an atomic snapshot, interleaving the per-process sequences
// round-robin by local index. It looks plausible — every get observes an
// atomic cut and every record eventually appears — but the assembled order is
// not stable under new appends: a get with counts (2,0) returns [a1 a2],
// while a later get with counts (2,1) returns [a1 b a2], which is not an
// extension of the first. Under cross-process interleaving its histories
// violate linearizability, sequential consistency, and even the eventually
// consistent ledger's ordering clause (1) — while any single-process
// execution is perfectly correct, which is exactly why bugs of this shape
// survive sequential testing.
type SnapshotLedger struct {
	cells mem.Array[int]
	logs  [][]trace.Rec
}

// NewSnapshotLedger returns an empty lock-free ledger for n processes.
func NewSnapshotLedger(n int) *SnapshotLedger {
	return &SnapshotLedger{
		cells: mem.NewAtomicArray(n, 0),
		logs:  make([][]trace.Rec, n),
	}
}

// Name implements Impl.
func (*SnapshotLedger) Name() string { return "ledger/snapshot" }

// Reset implements Impl. Truncating the per-process logs in place is safe:
// gets assemble their result into a fresh trace.Seq, so no earlier history
// aliases the log backing arrays.
func (l *SnapshotLedger) Reset(n int) {
	l.cells.Reset(n, 0)
	if cap(l.logs) < n {
		l.logs = make([][]trace.Rec, n)
		return
	}
	l.logs = l.logs[:n]
	for i := range l.logs {
		l.logs[i] = l.logs[i][:0]
	}
}

// Invoke implements Impl.
func (l *SnapshotLedger) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpAppend:
		id := p.ID
		l.logs[id] = append(l.logs[id], arg.(trace.Rec)) // local, no step
		l.cells.Write(p, id, len(l.logs[id]))            // publish
		return trace.Unit{}
	case trace.OpGet:
		counts := l.cells.Snapshot(p)
		var out trace.Seq
		// Deterministic round-robin assembly: index k of every process before
		// index k+1 of any process.
		for k := 0; ; k++ {
			appended := false
			for i, c := range counts {
				if k < c {
					out = append(out, l.logs[i][k])
					appended = true
				}
			}
			if !appended {
				break
			}
		}
		return out
	default:
		panic(fmt.Sprintf("sut: ledger does not implement %q", op))
	}
}

// ForkedLedger is a seeded-bug ledger with per-process replicas and no
// synchronization: appends go to the appender's replica only, gets read the
// reader's replica. Processes see forked, incompatible record sequences, so
// gets of different processes return sequences that are not prefixes of one
// another — a violation of even the eventually consistent ledger's ordering
// clause (1), let alone linearizability.
type ForkedLedger struct {
	replicas []mem.Register[trace.Seq]
}

// NewForkedLedger returns a forked ledger for n processes.
func NewForkedLedger(n int) *ForkedLedger {
	return &ForkedLedger{replicas: make([]mem.Register[trace.Seq], n)}
}

// Name implements Impl.
func (*ForkedLedger) Name() string { return "ledger/forked" }

// Reset implements Impl.
func (l *ForkedLedger) Reset(n int) {
	if cap(l.replicas) < n {
		l.replicas = make([]mem.Register[trace.Seq], n)
		return
	}
	l.replicas = l.replicas[:n]
	for i := range l.replicas {
		l.replicas[i] = mem.Register[trace.Seq]{}
	}
}

// Invoke implements Impl.
func (l *ForkedLedger) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpAppend:
		cur := l.replicas[p.ID].Read(p)
		l.replicas[p.ID].Write(p, append(cur.Clone(), arg.(trace.Rec)))
		return trace.Unit{}
	case trace.OpGet:
		return l.replicas[p.ID].Read(p).Clone()
	default:
		panic(fmt.Sprintf("sut: ledger does not implement %q", op))
	}
}

// LossyLedger is a seeded-bug ledger that silently drops every Drop-th
// append: the operation responds normally but the record never becomes
// visible to any get. Safety (clause 1) is preserved — gets return consistent
// prefixes of the surviving records — but convergence (clause 2 of the
// eventually consistent ledger) fails: dropped records never appear. The
// liveness-style ledger bug.
type LossyLedger struct {
	inner   LockLedger
	drop    int
	appends int
}

// NewLossyLedger returns a ledger that drops every drop-th append (drop ≥ 2).
func NewLossyLedger(drop int) *LossyLedger {
	if drop < 2 {
		drop = 2
	}
	return &LossyLedger{drop: drop}
}

// Name implements Impl.
func (l *LossyLedger) Name() string { return fmt.Sprintf("ledger/lossy-%d", l.drop) }

// Reset implements Impl: the drop period (a construction parameter) survives,
// the append counter and the wrapped ledger do not.
func (l *LossyLedger) Reset(n int) {
	l.appends = 0
	l.inner.Reset(n)
}

// Invoke implements Impl.
func (l *LossyLedger) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	if op == trace.OpAppend {
		l.appends++
		if l.appends%l.drop == 0 {
			p.Pause() // the operation "runs", but the record vanishes
			return trace.Unit{}
		}
	}
	return l.inner.Invoke(p, op, arg)
}

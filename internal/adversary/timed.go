package adversary

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// ArrayKind selects the shared-array implementation a timed adversary uses
// for its announcement array M — the Section 6.2 snapshot-versus-collect
// ablation knob.
type ArrayKind uint8

const (
	// ArrayAtomic uses the model's one-step atomic snapshot.
	ArrayAtomic ArrayKind = iota + 1
	// ArrayAADGMS uses the wait-free read/write snapshot protocol.
	ArrayAADGMS
	// ArrayCollect uses a plain collect; views may become incomparable.
	ArrayCollect
)

// NewArray builds an n-cell integer array of the requested kind.
func NewArray(kind ArrayKind, n int) mem.Array[int] {
	switch kind {
	case ArrayAADGMS:
		return mem.NewSnapshotArray(n, 0)
	case ArrayCollect:
		return mem.NewCollectArray(n, 0)
	default:
		return mem.NewAtomicArray(n, 0)
	}
}

// Timed is the timed adversary Aτ of Figure 6: it wraps an inner service in
// wait-free read/write code executed by the invoking process itself. Before
// sending invocation v, the process announces it in M[i]; after receiving the
// response it snapshots M and returns the union as the response's view.
// Lemma 6.1 (and 6.3) say the wrapper preserves the correctness of the inner
// behaviour, so verifying Aτ is an honest, if indirect, way of verifying A.
type Timed struct {
	inner   Service
	m       mem.Array[int]
	logs    [][]trace.Symbol // per-process announced invocations, append-only
	history trace.Word       // outer events: monitor↔Aτ sends and receives
}

var (
	_ Service = (*Timed)(nil)
	_ Stats   = (*Timed)(nil)
)

// NewTimed wraps the inner service for n processes using the given array
// kind for the announcement array M.
func NewTimed(n int, inner Service, kind ArrayKind) *Timed {
	return &Timed{
		inner: inner,
		m:     NewArray(kind, n),
		logs:  make([][]trace.Symbol, n),
	}
}

// Reset re-arms the wrapper for another run around inner, for n processes,
// keeping the announcement array's kind (it resets in place) and reusing the
// log and history buffers. Safe because History()/InnerHistory() clone: no
// earlier run's result aliases the recycled backing arrays.
func (t *Timed) Reset(n int, inner Service) {
	t.inner = inner
	t.m.Reset(n, 0)
	t.history = t.history[:0]
	if cap(t.logs) < n {
		t.logs = make([][]trace.Symbol, n)
		return
	}
	t.logs = t.logs[:n]
	for i := range t.logs {
		t.logs[i] = t.logs[i][:0]
	}
}

// NextInv implements Service by delegation; the wrapper adds nothing before
// Line 01.
func (t *Timed) NextInv(id int) (trace.Symbol, bool) { return t.inner.NextInv(id) }

// Send implements Service: Figure 6 Lines 01–03. The monitor's invocation
// event (Line 03 of Figure 1) occurs when Aτ receives v — before the
// announcement write, which is a shared-memory step by the sending process.
// This ordering (invocation, then announce) is what lets the sketch "move
// invocations forward to the next write" (Figure 7) and makes Theorem 6.1(1)
// hold.
func (t *Timed) Send(p *sched.Proc, v trace.Symbol) {
	id := p.ID
	t.history = append(t.history, v)   // the outer send event
	t.logs[id] = append(t.logs[id], v) // s_i ← s_i ∪ {v_i} (local)
	t.m.Write(p, id, len(t.logs[id]))  // M[i].write(s_i)
	t.inner.Send(p, v)                 // forward to A
}

// Recv implements Service: Figure 6 Lines 04–07. After the inner response
// arrives, the process snapshots M, attaches the resulting view, and only
// then does the outer response event occur — responses "move backward to the
// previous snapshot" in the sketch.
func (t *Timed) Recv(p *sched.Proc) trace.Response {
	resp := t.inner.Recv(p)
	counts := t.m.Snapshot(p)
	view := trace.NewView(counts)
	resp.View = &view
	t.history = append(t.history, resp.Sym) // the outer receive event
	return resp
}

// History implements Service: the input word x(E) of the monitor's execution
// is the sequence of outer events — invocations received by and responses
// returned by Aτ — ignoring views.
func (t *Timed) History() trace.Word { return t.history.Clone() }

// HistLen returns the number of outer events so far — len(History()) without
// the clone, cheap enough to record at every verdict.
func (t *Timed) HistLen() int { return len(t.history) }

// InnerHistory returns the behaviour the wrapped service exhibited, for
// Lemma 6.1/6.3 experiments relating the correctness of A and Aτ.
func (t *Timed) InnerHistory() trace.Word { return t.inner.History() }

// Pulled delegates to the inner service when it exposes Stats.
func (t *Timed) Pulled() int {
	if s, ok := t.inner.(Stats); ok {
		return s.Pulled()
	}
	return 0
}

// Crash delegates crash notifications to the inner service when it supports
// them; the wrapper itself holds no per-process gates.
func (t *Timed) Crash(id int) {
	if c, ok := t.inner.(interface{ Crash(id int) }); ok {
		c.Crash(id)
	}
}

// InvAt resolves an invocation identifier to its symbol, for monitors that
// inspect view contents (e.g. Figure 9's clause-4 test counts inc
// invocations inside views). Only identifiers contained in an observed view
// may be resolved — those are guaranteed announced.
func (t *Timed) InvAt(id trace.OpID) trace.Symbol { return t.logs[id.Proc][id.Idx] }

// CountOp returns how many invocations in the view name the given operation.
func (t *Timed) CountOp(v trace.View, op string) int {
	total := 0
	for i := 0; i < v.Procs(); i++ {
		for k := 0; k < v.Count(i); k++ {
			if t.logs[i][k].Op == op {
				total++
			}
		}
	}
	return total
}

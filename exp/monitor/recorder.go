package monitor

import (
	"fmt"
	"sync"

	"github.com/drv-go/drv/exp/trace"
)

// Recorder is the instrumentation adapter: external programs wrap it around
// their own concurrent data structures to produce monitorable histories.
// Call Invoke immediately before an operation starts and Respond immediately
// after it returns, from any goroutine; the recorder serializes the events
// into a well-formed concurrent history in the real-time order the recorder
// observed them.
//
// Each logical process (0 ≤ proc < n) must be sequential — one outstanding
// operation at a time, matching the paper's model — but different processes
// may record concurrently. A goroutine per process is the natural mapping.
// Misuse (out-of-range process, overlapping operations on one process,
// response without an invocation) panics, like misusing a sync.Mutex: it is
// a bug in the embedder's instrumentation, not a runtime condition.
type Recorder struct {
	mu      sync.Mutex
	pending []string // per-process op name of the outstanding invocation
	open    []bool
	aborted []string // non-empty: op whose Record body panicked on this process
	w       trace.Word
}

// NewRecorder returns a recorder for n logical processes.
func NewRecorder(n int) *Recorder {
	if n < 1 {
		panic(fmt.Sprintf("monitor: NewRecorder n must be ≥ 1, got %d", n))
	}
	return &Recorder{pending: make([]string, n), open: make([]bool, n), aborted: make([]string, n)}
}

// Invoke records that process proc is invoking op with the given argument
// (nil for none). It must be followed by Respond on the same process before
// that process's next Invoke.
func (r *Recorder) Invoke(proc int, op string, arg trace.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(proc)
	if r.open[proc] {
		panic(fmt.Sprintf("monitor: Recorder.Invoke: process %d already has a pending %q operation", proc, r.pending[proc]))
	}
	r.open[proc] = true
	r.pending[proc] = op
	r.w = append(r.w, trace.NewInv(proc, op, arg))
}

// Respond records that process proc's outstanding operation returned ret
// (nil for none). The operation name is the pending invocation's.
func (r *Recorder) Respond(proc int, ret trace.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(proc)
	if !r.open[proc] {
		panic(fmt.Sprintf("monitor: Recorder.Respond: process %d has no pending operation", proc))
	}
	r.open[proc] = false
	r.w = append(r.w, trace.NewRes(proc, r.pending[proc], ret))
}

// Record runs op-body f bracketed by Invoke/Respond: it records the
// invocation, calls f outside the recorder lock, and records f's return
// value as the response. It is the one-line instrumentation for call sites
// that don't need to place the events themselves.
//
// If f panics, the panic propagates, but the recorder stays consistent: the
// open bracket is recorded as an abort. The invocation remains in the
// history as a pending operation — exactly the shape a crashed process
// leaves behind in the paper's model, which the monitors handle — and the
// process records no further events (recording on an aborted process panics
// with the abort's provenance rather than a misleading pending-operation
// message). Other processes are unaffected, and the history stays
// well-formed.
func (r *Recorder) Record(proc int, op string, arg trace.Value, f func() trace.Value) trace.Value {
	r.Invoke(proc, op, arg)
	completed := false
	defer func() {
		if !completed {
			r.abort(proc)
		}
	}()
	ret := f()
	completed = true
	r.Respond(proc, ret)
	return ret
}

// abort closes the bracket a panicking Record body left open: the pending
// invocation stays in the history as an incomplete operation and the process
// is marked crashed.
func (r *Recorder) abort(proc int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aborted[proc] = r.pending[proc]
	r.open[proc] = false
	r.pending[proc] = ""
}

// History returns a copy of the history recorded so far. The copy is
// well-formed by construction (pending invocations are fine — monitors
// handle incomplete operations) and safe to hold while recording continues.
func (r *Recorder) History() trace.Word {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.w.Clone()
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.w)
}

func (r *Recorder) check(proc int) {
	if proc < 0 || proc >= len(r.pending) {
		panic(fmt.Sprintf("monitor: Recorder: process %d out of range [0,%d)", proc, len(r.pending)))
	}
	if op := r.aborted[proc]; op != "" {
		panic(fmt.Sprintf("monitor: Recorder: process %d aborted (its %q Record body panicked); an aborted process records no further events", proc, op))
	}
}

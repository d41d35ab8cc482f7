// Package adversary implements the distributed services that monitors
// interact with in Lines 03–04 of the generic algorithm (Figure 1): the
// asynchronous adversary A — a word cursor that can exhibit any well-formed
// behaviour, realizing Claim 3.1 — and the timed adversary Aτ of Section 6.1
// (Figure 6), which wraps any service in the announce/snapshot protocol that
// attaches views to responses.
package adversary

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
)

// Service is a distributed service under inspection, from the point of view
// of one monitor process: an oracle for the process's next invocation
// (Line 01 — in the model the adversary determines what processes send), a
// send operation (Line 03) and a receive operation (Line 04). All methods
// with a Proc consume scheduler steps; NextInv is local.
type Service interface {
	// NextInv returns the next invocation symbol process id must send, or
	// ok=false when the service's behaviour script is exhausted and the
	// process should stop iterating (finite experiment prefix).
	NextInv(id int) (trace.Symbol, bool)
	// Send transmits the invocation to the service; blocks (gated) until the
	// service absorbs it, which is the send event of the execution.
	Send(p *sched.Proc, v trace.Symbol)
	// Recv blocks until the service delivers the response to the process's
	// outstanding invocation and returns it. The response's ID is the
	// operation's process and its per-process index: the k-th response
	// process p receives has ID {p, k}, counting from 0. The monitors'
	// triple board relies on it to find an operation's triple in its
	// process's log.
	Recv(p *sched.Proc) trace.Response
	// History returns the input word x(E) emitted so far: the subsequence of
	// send/receive events in global real-time order. Call only between steps
	// or after the run. The word may alias the service's own buffer: callers
	// must not modify it, and a service that is re-armed for another run
	// (Reset) overwrites it, so callers that keep it across runs clone it.
	History() trace.Word
}

// Stats is the optional introspection side of a Service: cheap counters the
// monitor runner records at every verdict. A service that implements it must
// provide both counters; services without them (the deployed SUT harness)
// simply record zeros, exactly as before the interface existed.
type Stats interface {
	// Pulled returns how many symbols the service has consumed from its
	// source — everything that can have influenced the execution so far.
	Pulled() int
	// HistLen returns the number of input-word symbols emitted so far:
	// len(History()).
	HistLen() int
}

// Source supplies the ω-word a word-cursor adversary exhibits, one symbol at
// a time. Implementations must produce well-formed sequences (per-process
// alternation); Next is called at most once per position.
type Source interface {
	// Next returns the symbol at the current position and advances, or
	// ok=false if the source is a finite script that has ended.
	Next() (trace.Symbol, bool)
}

// Arriving is a Source whose word arrives while the run goes on: Dry reports
// whether Next found no symbol only because the next one has not arrived,
// and the word-cursor adversary then suspends the run instead of ending it.
type Arriving interface {
	Source
	Dry() bool
}

// ScriptSource replays a fixed finite word.
type ScriptSource struct {
	w   trace.Word
	pos int
}

// NewScriptSource returns a source that emits exactly w and then ends.
func NewScriptSource(w trace.Word) *ScriptSource { return &ScriptSource{w: w} }

// Next implements Source.
func (s *ScriptSource) Next() (trace.Symbol, bool) {
	if s.pos >= len(s.w) {
		return trace.Symbol{}, false
	}
	sym := s.w[s.pos]
	s.pos++
	return sym, true
}

// Labeled couples a source with ground truth about the infinite word it
// samples: whether that word belongs to the language under verification.
// Finite runs cannot decide ω-membership, so possibility experiments carry
// the label alongside the behaviour.
type Labeled struct {
	Name string
	// In reports membership of the full ω-word in the language.
	In bool
	// New returns a fresh source emitting the word from the start.
	New func() Source
}

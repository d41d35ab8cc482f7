// Package sut provides systems under test: real concurrent object
// implementations running on the shared-memory substrate, exposed through the
// adversary.Service interface so monitors interact with them exactly as with
// the abstract adversary A. Where package adversary exhibits scripted
// behaviours (any word, per Claim 3.1), this package exhibits emergent
// behaviours: the responses are computed by actual wait-free or lock-free
// algorithms whose interleaving the scheduler controls. Each object comes in
// a correct variant and one or more seeded-bug variants, so end-to-end
// experiments can demonstrate monitors both accepting correct deployments and
// catching real bugs — the deployment story of [17] that motivates the paper.
package sut

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/sched"
)

// Impl is a concurrent object implementation. Invoke executes one operation
// on behalf of process p, consuming p's scheduler steps through shared-memory
// operations, and returns the response value. Implementations must tolerate
// arbitrary interleavings of concurrent Invoke calls by different processes;
// the scheduler guarantees only one process runs between Pause points.
//
// Reset is the pooled-lifecycle contract: it must restore the implementation
// to its freshly constructed state for n processes — same seeded-bug
// parameters, empty shared state, zeroed per-process caches — reusing backing
// storage where capacity allows. A reused instance must exhibit byte-identical
// histories to a fresh one under the same schedule; the explorer leans on this
// to run one instance per worker per object/impl pair instead of allocating
// per scenario.
type Impl interface {
	// Name identifies the implementation in experiment reports.
	Name() string
	// Invoke runs op(arg) for process p and returns its response value.
	Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value
	// Reset restores the freshly constructed state for n processes.
	Reset(n int)
}

// Workload decides the invocations each monitor process sends, resolving
// Line 01's nondeterministic pick for deployments (where no adversary script
// exists).
type Workload interface {
	// Next returns the id-th process's next operation, or ok=false when the
	// process's budget is exhausted and it should stop iterating.
	Next(id int) (op string, arg trace.Value, ok bool)
}

// Service adapts an Impl plus a Workload to the adversary.Service interface:
// Send records the invocation event, Recv executes the operation and records
// the response event. Between a process's send and receive events the
// scheduler interleaves other processes freely, so operations genuinely
// overlap and the recorded history is a concurrent history of the
// implementation.
type Service struct {
	n    int
	impl Impl
	wl   Workload

	history trace.Word
	pending []trace.Symbol
	opCount []int
}

var _ adversary.Service = (*Service)(nil)

// NewService wires an implementation and a workload for n processes.
func NewService(n int, impl Impl, wl Workload) *Service {
	s := &Service{}
	s.Reset(n, impl, wl)
	return s
}

// Reset rewires the service for n processes around impl and wl, truncating
// the history and reusing the per-process buffers. The word History returned
// before the Reset is overwritten by the next run.
func (s *Service) Reset(n int, impl Impl, wl Workload) {
	s.n, s.impl, s.wl = n, impl, wl
	s.history = s.history[:0]
	if cap(s.pending) >= n {
		s.pending = s.pending[:n]
		s.opCount = s.opCount[:n]
	} else {
		s.pending = make([]trace.Symbol, n)
		s.opCount = make([]int, n)
	}
	for i := 0; i < n; i++ {
		s.pending[i] = trace.Symbol{}
		s.opCount[i] = 0
	}
}

// NextInv implements adversary.Service using the workload.
func (s *Service) NextInv(id int) (trace.Symbol, bool) {
	op, arg, ok := s.wl.Next(id)
	if !ok {
		return trace.Symbol{}, false
	}
	return trace.NewInv(id, op, arg), true
}

// Send implements adversary.Service: the invocation event of the operation.
// It consumes one scheduler step, which is the event's position in real time.
func (s *Service) Send(p *sched.Proc, v trace.Symbol) {
	if v.Proc != p.ID {
		panic(fmt.Sprintf("sut: process %d sending symbol of process %d", p.ID, v.Proc))
	}
	p.Pause()
	s.history = append(s.history, v)
	s.pending[p.ID] = v
}

// Recv implements adversary.Service: it executes the operation body on the
// shared-memory substrate (consuming the caller's steps) and then delivers
// the response event.
func (s *Service) Recv(p *sched.Proc) trace.Response {
	inv := s.pending[p.ID]
	ret := s.impl.Invoke(p, inv.Op, inv.Val)
	p.Pause()
	res := trace.NewRes(p.ID, inv.Op, ret)
	s.history = append(s.history, res)
	id := trace.OpID{Proc: p.ID, Idx: s.opCount[p.ID]}
	s.opCount[p.ID]++
	return trace.Response{Sym: res, ID: id}
}

// History implements adversary.Service: the concurrent history the
// implementation exhibited, in real-time event order. The word aliases the
// service's buffer: it is valid until the next Reset.
func (s *Service) History() trace.Word { return s.history[:len(s.history):len(s.history)] }

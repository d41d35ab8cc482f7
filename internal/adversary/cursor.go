package adversary

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
)

type procPhase uint8

const (
	phaseIdle procPhase = iota
	phaseWaitSend
	phaseWaitRecv
)

// A is the asynchronous adversary of Section 3: a black box that exhibits an
// arbitrary well-formed behaviour. It is implemented as a word cursor: a
// Source dictates the ω-word, and an auxiliary scheduler actor emits the
// word's symbols one at a time, each emission being the corresponding global
// send or receive event. The cursor can only emit a symbol when its owner
// process is parked at the matching gate, so the emitted order is exactly the
// real-time order of events in x(E) — the thing processes cannot observe.
//
// Claim 3.1 falls out of the construction: for any well-formed word, driving
// the cursor with a Prioritize policy yields an execution whose input is that
// word.
//
// The cursor's runnable test reads the queue's head and its owner's gate
// state, so everything that changes them wakes the cursor: a Crash, and the
// head's owner parking at a gate (Send, Recv). The cursor's own step empties
// the queue or moves its head, and the scheduler re-reads it after that step
// anyway. The test pulls from the source only when the queue is empty, and
// a re-read follows each of the two events that empty it, so the cursor
// pulls at exactly the steps a polling scheduler would.
//
// An Arriving source can run dry at either pull, the runnable test
// (sched.Runtime.Dry) and NextInv's read-ahead on a process's coroutine
// (sched.Runtime.Suspend); the run resumes at the same pull.
type A struct {
	n        int
	src      Source
	arriving Arriving // src, when its word is still arriving
	// rt and cursor are the runtime the cursor is registered on and its
	// actor ID there; rt is nil until Register.
	rt     *sched.Runtime
	cursor int

	queue     trace.Word // queue[head:] are pulled but not yet emitted symbols
	head      int
	exhausted bool
	history   trace.Word // emitted symbols: the x(E) prefix

	phase   []procPhase
	outbox  []trace.Symbol // invocation a waiting process wants to send
	granted []bool         // gate flags: cursor emitted the process's symbol
	inbox   []trace.Symbol // delivered responses
	invs    [][]trace.Symbol
	handed  []int // invocations handed out via NextInv
	opCount []int // completed send events per process, for OpIDs
	crashed []bool
	live    int // processes not crashed
	// gates[id] is process id's Await condition (its gate flag is set),
	// built once per process so Send and Recv allocate no closure.
	gates []func() bool
}

var (
	_ Service = (*A)(nil)
	_ Stats   = (*A)(nil)
)

// NewA returns an adversary for n processes exhibiting the source's word.
func NewA(n int, src Source) *A {
	a := &A{}
	a.Reset(n, src)
	return a
}

// Reset re-arms the adversary for another run over n processes exhibiting
// src's word, exactly as NewA(n, src) would, but keeping the queue, history,
// per-process and invocation-log buffers and the gate closures. The word
// History returned before the Reset is overwritten by the next run.
func (a *A) Reset(n int, src Source) {
	a.n, a.src = n, src
	a.arriving, _ = src.(Arriving)
	a.rt = nil
	a.queue, a.head = a.queue[:0], 0
	a.exhausted = false
	a.history = a.history[:0]
	a.phase = zeroed(a.phase, n)
	a.outbox = zeroed(a.outbox, n)
	a.granted = zeroed(a.granted, n)
	a.inbox = zeroed(a.inbox, n)
	a.handed = zeroed(a.handed, n)
	a.opCount = zeroed(a.opCount, n)
	a.crashed = zeroed(a.crashed, n)
	a.live = n
	a.invs = rows(a.invs, n)
	for id := len(a.gates); id < n; id++ {
		a.gates = append(a.gates, func() bool { return a.granted[id] })
	}
}

// zeroed returns s resized to n zero values, reusing its backing array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Crash tells the adversary the process has crashed: its remaining symbols
// are dropped from the exhibited word — a crashed process has finitely many
// events, so the behaviour continues without it and the cursor never blocks
// waiting for it. Call together with Runtime.Crash (the monitor runner's
// Crash map does both).
func (a *A) Crash(id int) {
	if !a.crashed[id] {
		a.live--
	}
	a.crashed[id] = true
	a.dropCrashed()
	a.wakeCursor()
}

// wakeCursor tells the scheduler the cursor's runnable test may have changed.
func (a *A) wakeCursor() {
	if a.rt != nil {
		a.rt.Wake(a.cursor)
	}
}

// parked wakes the cursor if process id, which has just parked at a gate,
// owns the queue's head symbol: only that owner's gate state is read by the
// cursor's test. An empty queue means the source is exhausted or every
// process has crashed, since the cursor was re-read after whatever emptied
// it, so its test stays false.
func (a *A) parked(id int) {
	if a.head < len(a.queue) && a.queue[a.head].Proc == id {
		a.wakeCursor()
	}
}

// dropCrashed removes queued symbols owned by crashed processes, compacting
// the queue to the front of its buffer.
func (a *A) dropCrashed() {
	kept := a.queue[:0]
	for _, s := range a.queue[a.head:] {
		if !a.crashed[s.Proc] {
			kept = append(kept, s)
		}
	}
	a.queue, a.head = kept, 0
}

// Register installs the adversary's word cursor as an auxiliary actor on the
// runtime and returns its actor ID (usable in scripted policies).
func (a *A) Register(rt *sched.Runtime) int {
	a.rt = rt
	a.cursor = rt.AddAux(a.cursorRunnable, a.cursorStep)
	return a.cursor
}

// pull transfers one symbol from the source into the queue; reports whether
// anything was pulled. Once every process has crashed nothing can be: the
// source may be infinite, and its symbols would all be skipped, so pull
// gives up without pulling and without marking the source exhausted, as it
// does when an arriving source runs dry (see dry).
func (a *A) pull() bool {
	for {
		if a.exhausted || a.live == 0 {
			return false
		}
		s, ok := a.src.Next()
		if !ok {
			a.exhausted = a.arriving == nil || !a.arriving.Dry()
			return false
		}
		if s.Proc < 0 || s.Proc >= a.n {
			panic(fmt.Sprintf("adversary: source emitted symbol for process %d of %d", s.Proc, a.n))
		}
		if a.crashed[s.Proc] {
			continue // crashed processes have no further events
		}
		a.queue = append(a.queue, s)
		if s.Kind == trace.Inv {
			a.invs[s.Proc] = append(a.invs[s.Proc], s)
		}
		return true
	}
}

// dry reports, after pull found nothing, that the source has run dry: its
// next symbol has not arrived.
func (a *A) dry() bool { return !a.exhausted && a.live > 0 }

func (a *A) cursorRunnable() bool {
	if a.head == len(a.queue) && !a.pull() {
		if a.dry() {
			a.rt.Dry()
		}
		return false
	}
	s := a.queue[a.head]
	switch s.Kind {
	case trace.Inv:
		return a.phase[s.Proc] == phaseWaitSend && !a.granted[s.Proc]
	case trace.Res:
		return a.phase[s.Proc] == phaseWaitRecv && !a.granted[s.Proc]
	}
	return false
}

// cursorStep emits the next symbol of the word: the send or receive event,
// which opens the owner's gate.
func (a *A) cursorStep() {
	s := a.queue[a.head]
	a.head++
	if a.head == len(a.queue) {
		a.queue, a.head = a.queue[:0], 0 // drained: refill from the front
	}
	a.history = append(a.history, s)
	switch s.Kind {
	case trace.Inv:
		if !a.outbox[s.Proc].Equal(s) {
			panic(fmt.Sprintf("adversary: process %d waits to send %v but word says %v",
				s.Proc, a.outbox[s.Proc], s))
		}
	case trace.Res:
		a.inbox[s.Proc] = s
	}
	a.granted[s.Proc] = true
	a.rt.Wake(s.Proc)
}

// NextInv implements Service: it reveals the process's next invocation, which
// in the model the adversary determines (Line 01's nondeterministic pick is
// resolved by the behaviour being exhibited). A source that runs dry while
// NextInv reads ahead suspends the process, which must be the caller.
func (a *A) NextInv(id int) (trace.Symbol, bool) {
	for a.handed[id] >= len(a.invs[id]) {
		if a.pull() {
			continue
		}
		if !a.dry() {
			return trace.Symbol{}, false
		}
		a.rt.Suspend(id)
	}
	s := a.invs[id][a.handed[id]]
	a.handed[id]++
	return s, true
}

// Send implements Service; the send event occurs when the cursor emits the
// invocation symbol, and the process consumes one step observing it.
func (a *A) Send(p *sched.Proc, v trace.Symbol) {
	id := p.ID
	a.outbox[id] = v
	a.phase[id] = phaseWaitSend
	a.parked(id)
	p.Await(a.gates[id])
	a.granted[id] = false
	a.phase[id] = phaseIdle
}

// Recv implements Service; symmetric to Send for the response symbol.
func (a *A) Recv(p *sched.Proc) trace.Response {
	id := p.ID
	a.phase[id] = phaseWaitRecv
	a.parked(id)
	p.Await(a.gates[id])
	a.granted[id] = false
	a.phase[id] = phaseIdle
	resp := trace.Response{
		Sym: a.inbox[id],
		ID:  trace.OpID{Proc: id, Idx: a.opCount[id]},
	}
	a.opCount[id]++
	return resp
}

// History implements Service. The word aliases the adversary's buffer: it is
// valid until the next Reset.
func (a *A) History() trace.Word { return a.history[:len(a.history):len(a.history)] }

// Peek returns the next unemitted symbol of the adversary's word without
// consuming it.
func (a *A) Peek() (trace.Symbol, bool) {
	if a.head == len(a.queue) && !a.pull() {
		return trace.Symbol{}, false
	}
	return a.queue[a.head], true
}

// HistLen returns the number of symbols emitted so far: len(History()),
// cheap enough to record at every verdict.
func (a *A) HistLen() int { return len(a.history) }

// Pulled returns how many symbols have been consumed from the source —
// everything that can have influenced the execution so far. Prefix-extension
// attacks (Lemmas 5.2, 6.2, 6.5) cut their hybrid words at this boundary so
// the attacked execution replays deterministically up to the cut.
func (a *A) Pulled() int { return len(a.history) + len(a.queue) - a.head }

// WaitingSend reports whether the process is parked at the send gate; used by
// the phase-structured policies that drive proof constructions.
func (a *A) WaitingSend(id int) bool { return a.phase[id] == phaseWaitSend && !a.granted[id] }

// WaitingRecv reports whether the process is parked at the receive gate.
func (a *A) WaitingRecv(id int) bool { return a.phase[id] == phaseWaitRecv && !a.granted[id] }

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
type A struct {
	n   int
	src Source

	queue     trace.Word // pulled but not yet emitted symbols
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
}

var (
	_ Service = (*A)(nil)
	_ Stats   = (*A)(nil)
)

// NewA returns an adversary for n processes exhibiting the source's word.
func NewA(n int, src Source) *A {
	return &A{
		n:       n,
		src:     src,
		phase:   make([]procPhase, n),
		outbox:  make([]trace.Symbol, n),
		granted: make([]bool, n),
		inbox:   make([]trace.Symbol, n),
		invs:    make([][]trace.Symbol, n),
		handed:  make([]int, n),
		opCount: make([]int, n),
		crashed: make([]bool, n),
	}
}

// Crash tells the adversary the process has crashed: its remaining symbols
// are dropped from the exhibited word — a crashed process has finitely many
// events, so the behaviour continues without it and the cursor never blocks
// waiting for it. Call together with Runtime.Crash (the monitor runner's
// Crash map does both).
func (a *A) Crash(id int) {
	a.crashed[id] = true
	a.dropCrashed()
}

// dropCrashed removes queued symbols owned by crashed processes.
func (a *A) dropCrashed() {
	kept := a.queue[:0]
	for _, s := range a.queue {
		if !a.crashed[s.Proc] {
			kept = append(kept, s)
		}
	}
	a.queue = kept
}

// Register installs the adversary's word cursor as an auxiliary actor on the
// runtime and returns its actor ID (usable in scripted policies).
func (a *A) Register(rt *sched.Runtime) int {
	return rt.AddAux("adversary-cursor", a.cursorRunnable, a.cursorStep)
}

// pull transfers one symbol from the source into the queue; reports whether
// anything was pulled.
func (a *A) pull() bool {
	for {
		if a.exhausted {
			return false
		}
		s, ok := a.src.Next()
		if !ok {
			a.exhausted = true
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

func (a *A) cursorRunnable() bool {
	if len(a.queue) == 0 && !a.pull() {
		return false
	}
	s := a.queue[0]
	switch s.Kind {
	case trace.Inv:
		return a.phase[s.Proc] == phaseWaitSend && !a.granted[s.Proc]
	case trace.Res:
		return a.phase[s.Proc] == phaseWaitRecv && !a.granted[s.Proc]
	}
	return false
}

// cursorStep emits the next symbol of the word: the send or receive event.
func (a *A) cursorStep() {
	s := a.queue[0]
	a.queue = a.queue[1:]
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
}

// NextInv implements Service: it reveals the process's next invocation, which
// in the model the adversary determines (Line 01's nondeterministic pick is
// resolved by the behaviour being exhibited).
func (a *A) NextInv(id int) (trace.Symbol, bool) {
	for a.handed[id] >= len(a.invs[id]) {
		if !a.pull() {
			return trace.Symbol{}, false
		}
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
	p.Await(func() bool { return a.granted[id] })
	a.granted[id] = false
	a.phase[id] = phaseIdle
}

// Recv implements Service; symmetric to Send for the response symbol.
func (a *A) Recv(p *sched.Proc) trace.Response {
	id := p.ID
	a.phase[id] = phaseWaitRecv
	p.Await(func() bool { return a.granted[id] })
	a.granted[id] = false
	a.phase[id] = phaseIdle
	resp := trace.Response{
		Sym: a.inbox[id],
		ID:  trace.OpID{Proc: id, Idx: a.opCount[id]},
	}
	a.opCount[id]++
	return resp
}

// History implements Service.
func (a *A) History() trace.Word { return a.history.Clone() }

// HistLen returns the number of symbols emitted so far — len(History())
// without the clone, cheap enough to record at every verdict.
func (a *A) HistLen() int { return len(a.history) }

// Pulled returns how many symbols have been consumed from the source —
// everything that can have influenced the execution so far. Prefix-extension
// attacks (Lemmas 5.2, 6.2, 6.5) cut their hybrid words at this boundary so
// the attacked execution replays deterministically up to the cut.
func (a *A) Pulled() int { return len(a.history) + len(a.queue) }

// CursorStats is a deterministic snapshot of the word cursor's drive state:
// how far into the source the execution got, how much of the pulled word was
// actually exhibited, and what the cursor dropped. Two executions of the
// same spec report identical stats, so coverage signatures (package explore)
// can fold them without touching the history itself.
type CursorStats struct {
	// Pulled counts symbols consumed from the source (emitted + queued).
	Pulled int `json:"pulled"`
	// Emitted counts symbols emitted into the exhibited word x(E).
	Emitted int `json:"emitted"`
	// Queued counts symbols pulled but not yet emitted — the cursor's
	// backlog when the run ended, a measure of how far the schedule starved
	// the gated processes.
	Queued int `json:"queued"`
	// Exhausted reports whether the source's finite script ended.
	Exhausted bool `json:"exhausted"`
	// CrashedProcs counts processes whose remaining symbols the cursor
	// dropped from the word.
	CrashedProcs int `json:"crashed_procs"`
}

// CursorStats snapshots the cursor's drive state; call between steps or
// after the run.
func (a *A) CursorStats() CursorStats {
	s := CursorStats{
		Pulled:    a.Pulled(),
		Emitted:   len(a.history),
		Queued:    len(a.queue),
		Exhausted: a.exhausted,
	}
	for _, c := range a.crashed {
		if c {
			s.CrashedProcs++
		}
	}
	return s
}

// WaitingSend reports whether the process is parked at the send gate; used by
// the phase-structured policies that drive proof constructions.
func (a *A) WaitingSend(id int) bool { return a.phase[id] == phaseWaitSend && !a.granted[id] }

// WaitingRecv reports whether the process is parked at the receive gate.
func (a *A) WaitingRecv(id int) bool { return a.phase[id] == phaseWaitRecv && !a.granted[id] }

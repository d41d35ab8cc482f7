// Package sched provides the asynchronous computation model of Section 3 as
// an executable substrate: n crash-prone processes, each a coroutine, run
// under a cooperative scheduler that grants one atomic step at a time. There
// is no bound on the number of steps of other processes between consecutive
// steps of the same process — the scheduling Policy is the adversary's
// control over asynchrony. Because exactly one coroutine runs at any moment
// and policies are deterministic (seeded), every execution is replayable,
// which is what makes the paper's indistinguishability arguments (E ≡ F)
// checkable in code.
//
// Processes park between steps; shared-memory operations (package mem) call
// Proc.Pause once per atomic action. A process can also park on a condition
// gate (Proc.Await) — used to wait for the adversary to deliver a response —
// and is not runnable until the gate opens. Crashing a process simply stops
// scheduling it, which is exactly the crash model of the paper.
//
// The runtime keeps the set of runnable actors as state instead of polling
// every gate at every step. An actor's runnability — a process's gate, an
// auxiliary actor's runnable function — is re-read only when the actor is
// spawned or registered, right after its own step (unless a process paused,
// which leaves it ready), when it is crashed, and when some step wakes it
// (Runtime.Wake). A step on one object changes no
// answer of an actor that does not read that object, so only the actors it
// touched need a re-read: whoever writes state a gate reads must Wake the
// gate's actor. Woken actors are re-read ahead of the next scheduling
// choice, where a polling scheduler read every gate, so gates that pull from
// a source pull at the same steps either way.
//
// Each process body runs on an iter.Pull coroutine, and a step switches
// coroutines only when control passes to another process. A process that
// pauses or parks at a gate makes the runtime's next scheduling choice
// itself, on its own coroutine: it runs the before-step hook, re-reads the
// woken actors and asks the Policy, exactly as the caller's loop would. It
// runs a chosen auxiliary actor's step inline and returns from Pause or
// Await without a switch when it is chosen again, so a run of consecutive
// steps by one process (aux steps between them included) costs no switch.
//
// When another process is chosen, the parked process hands it the step
// directly: it resumes the chosen process from its own coroutine and waits
// inside that process's next. The processes waiting this way form a chain
// of resumers below the running one, each process on it at most once, so
// the chain is at most n deep. A process on the chain cannot be resumed
// again (it is calling another's next), so when the running process picks
// one, reaches the step limit or finds nothing runnable, it records the
// outcome and yields; each process below it on the chain sees that it was
// not the one chosen and yields in turn, until control reaches the chosen
// process or the caller. A resumed process that exits yields to its
// resumer, which wakes it and makes the next choice. Only the first process
// of a Step or Run is resumed by the caller, so a hand-over to a process
// parked at its yield costs one switch rather than a round trip through the
// caller. Step and Run drive the same loop; Step's limit is one step, so it
// never builds a chain, and driving a runtime Step by Step takes the same
// steps as Run. A panic in a process body, in the Policy or in an aux step
// unwinds down the chain, ending every coroutine on it, and surfaces from
// the Runtime.Step or Run that was driving, on the caller's goroutine, with
// its original value.
//
// Runtimes are poolable: Reset rewinds a runtime for a fresh execution while
// reusing its Proc structs, parked process coroutines, and runnable-set
// buffers, so workloads that run thousands of short executions (the scenario
// explorer, the Table 1 sweeps) pay coroutine creation/teardown once per
// worker instead of once per execution, and the steady-state step loop
// allocates nothing.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sync/atomic"
)

// errStopped is the sentinel panic value used to unwind process coroutines
// when the runtime halts an execution; it never escapes the package.
var errStopped = errors.New("sched: runtime stopped")

type procState uint8

const (
	stateReady procState = iota + 1
	stateGated
	stateCrashed
	stateExited
)

// Proc is the handle a process body uses to interact with the scheduler.
// All methods must be called only from the process's own coroutine.
type Proc struct {
	// ID is the process index, 0 ≤ ID < n.
	ID int

	rt *Runtime
	// next, yield and stop come from the process's one iter.Pull coroutine:
	// the scheduler calls next to run the process until its next park, the
	// process calls yield to park, and Stop calls stop to end it for good.
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	stop    func()
	state   procState
	gate    func() bool
	spawned bool
	body    func(p *Proc)
	live    bool // coroutine created (parked at its body-exit yield between runs)
	// calling is set while the process, parked, waits inside another
	// process's next: it is on the chain of resumers and must be yielded
	// down to, not resumed. A panic that unwinds the chain leaves it set
	// on dead coroutines; Reset clears it.
	calling bool
}

// Pause yields control and blocks until the scheduler grants the process its
// next step. Every atomic action (a shared-memory operation, an interaction
// with the adversary) performs exactly one Pause; purely local computation
// between pauses is free, matching the model where local steps are absorbed
// into the surrounding shared-memory step.
func (p *Proc) Pause() {
	p.park()
	p.checkStopped()
}

// Await parks the process until cond reports true, then consumes one step.
// The scheduler reads cond when the process parks and again only when some
// actor wakes the process (Runtime.Wake), so cond must only read state that
// other actors' steps write, and every step that writes it must Wake the
// process: an un-woken gate keeps its last answer.
func (p *Proc) Await(cond func() bool) {
	p.state = stateGated
	p.gate = cond
	p.park()
	p.gate = nil
	p.state = stateReady
	p.checkStopped()
}

// park ends the process's step and makes the scheduling choices that follow
// it on the process's own coroutine, until the policy picks the process
// again (park returns without a switch) or control must leave it. A chosen
// process that is parked at its yield is resumed from here, and park waits
// inside its next; when that returns, the resumed process has either exited
// (park wakes it and chooses again) or yielded down the chain with the
// outcome in rt.next, which park returns on when it names this process and
// otherwise passes further down. When the choice is a process on the chain,
// the step limit or a stall, park records it in rt.next and yields.
func (p *Proc) park() {
	rt := p.rt
	// A process that paused is still ready, so still runnable; one that
	// parked at a gate needs a re-read.
	if p.state != stateReady {
		rt.Wake(p.ID)
	}
	for {
		id := rt.choose()
		if id == p.ID {
			return
		}
		if id >= rt.n {
			rt.stepAux(id)
			continue
		}
		if id < 0 || rt.procs[id].calling {
			rt.next = id
			break
		}
		q := rt.procs[id]
		p.calling = true
		q.resume()
		p.calling = false
		if q.state == stateExited {
			rt.Wake(id)
			continue
		}
		if rt.next == p.ID {
			return
		}
		break
	}
	p.yield(struct{}{})
}

func (p *Proc) checkStopped() {
	if p.rt.stopped {
		panic(errStopped)
	}
}

// loop is the persistent coroutine body: it runs the spawned body when first
// resumed, marks the process exited and parks at the body-exit yield, and
// runs the next spawn's body when resumed after a Reset/Spawn cycle — or
// returns for good once Stop ends the coroutine (yield reports false).
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.runBody()
		p.state = stateExited
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes the body of one spawn, absorbing the errStopped unwind.
func (p *Proc) runBody() {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	p.checkStopped()
	p.body(p)
}

// resume runs the process's coroutine until it parks again. If the body
// panics, the panic propagates out of this call; the coroutine is then gone,
// so the next resume finds it finished, retires the process for this
// execution, and lets the next Spawn make a fresh coroutine.
func (p *Proc) resume() {
	p.rt.trips++
	if _, ok := p.next(); !ok {
		p.live = false
		p.state = stateExited
	}
}

// Policy chooses the next actor to schedule among the runnable ones. IDs
// 0..n−1 are processes; IDs ≥ n are auxiliary actors in registration order.
// runnable is sorted ascending and non-empty; implementations must return one
// of its elements. The slice is the runtime's own runnable set: read it, but
// do not modify it or keep it past the call.
type Policy interface {
	Next(runnable []int, step int) int
}

// Runtime hosts the processes and auxiliary actors of one execution. A
// runtime can be reused for many executions via Reset; Stop tears it down for
// good.
type Runtime struct {
	n      int
	procs  []*Proc
	aux    []auxActor
	policy Policy
	// runnable is the sorted set of runnable actor IDs as of the last
	// refresh, and in[id] says whether id is in it. woken lists the actors
	// whose runnability the next Step re-reads, and isWoken flags them, so
	// an actor is listed once however often it is woken. in and isWoken
	// span every actor: n processes, then the aux actors.
	runnable []int
	in       []bool
	woken    []int
	isWoken  []bool
	steps    int
	// limit and before are the running drive's step limit and before-step
	// hook; next is the outcome a process hands down the chain when it
	// yields from park: the process chosen to run next, chooseLimit or
	// chooseStall.
	limit  int
	before func(step int)
	next   int
	// trips counts the execution's coroutine round trips (Proc.resume
	// calls, the unwinding at its end included), rereads the runnability
	// re-reads refresh makes and noops those that change nothing; halt adds
	// them to tally.
	trips   int
	rereads int
	noops   int
	stopped bool // current execution halted; bodies unwind at next grant
	killed  bool // runtime dead for good; coroutines have been stopped
	started bool
}

type auxActor struct {
	runnable func() bool
	step     func()
}

// New creates a runtime for n processes scheduled by the policy.
func New(n int, policy Policy) *Runtime {
	rt := &Runtime{}
	rt.Reset(n, policy)
	return rt
}

// Reset rewinds the runtime for a fresh execution of n processes under the
// policy: any in-flight execution is halted (its process bodies unwind and
// their coroutines park for reuse), auxiliary actors are dropped, and the
// step count rewinds to zero. Proc structs, parked coroutines and the
// runnable-set buffers are reused, so resetting an already-grown runtime
// allocates nothing. The runtime behaves exactly like a fresh New(n, policy):
// schedules are byte-for-byte deterministic across reuse.
func (rt *Runtime) Reset(n int, policy Policy) {
	if rt.killed {
		panic("sched: Reset after Stop")
	}
	if n < 1 {
		panic("sched: need at least one process")
	}
	rt.halt()
	for len(rt.procs) < n {
		i := len(rt.procs)
		rt.procs = append(rt.procs, &Proc{ID: i, rt: rt, state: stateReady})
	}
	rt.n = n
	rt.policy = policy
	rt.steps = 0
	rt.stopped = false
	rt.started = false
	rt.aux = rt.aux[:0]
	for _, p := range rt.procs[:n] {
		p.state = stateReady
		p.gate = nil
		p.spawned = false
		p.body = nil
		p.calling = false
	}
	rt.runnable = rt.runnable[:0]
	rt.woken = rt.woken[:0]
	rt.in = resize(rt.in, n)
	rt.isWoken = resize(rt.isWoken, n)
}

// resize returns s with n false entries, reusing its backing array.
func resize(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n, n+4)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetPolicy installs or replaces the scheduling policy. It must be called
// before the first step; New may be given a nil policy when the final policy
// depends on actor IDs assigned by AddAux.
func (rt *Runtime) SetPolicy(p Policy) {
	if rt.started {
		panic("sched: SetPolicy after Run")
	}
	rt.policy = p
}

// Steps returns the number of steps scheduled so far.
func (rt *Runtime) Steps() int { return rt.steps }

// Spawn installs the body of process id. The body starts executing at the
// process's first scheduled step. Must be called before Run/Step; each
// process can be spawned once per execution (Reset re-arms it). The
// process's coroutine is created on its first-ever spawn and reused by
// subsequent executions.
func (rt *Runtime) Spawn(id int, body func(p *Proc)) {
	if rt.started {
		panic("sched: Spawn after Run")
	}
	p := rt.procs[id]
	if p.spawned {
		panic(fmt.Sprintf("sched: process %d spawned twice", id))
	}
	p.spawned = true
	p.body = body
	if !p.live {
		p.live = true
		p.next, p.stop = iter.Pull(p.loop)
	}
	rt.Wake(id)
}

// AddAux registers an auxiliary actor — a step function scheduled like a
// process but executed inline (the adversary's word cursor is one). Its
// actor ID is n plus the registration index, returned for use in scripted
// policies and for Wake. Like a process's gate, runnable is re-read only
// after the actor's own steps and when it is woken, so every step that
// changes runnable's answer must Wake the actor.
func (rt *Runtime) AddAux(runnable func() bool, step func()) int {
	if rt.started {
		panic("sched: AddAux after Run")
	}
	rt.aux = append(rt.aux, auxActor{runnable: runnable, step: step})
	rt.in = append(rt.in, false)
	rt.isWoken = append(rt.isWoken, false)
	id := rt.n + len(rt.aux) - 1
	rt.Wake(id)
	return id
}

// Wake marks actor id's runnability for a re-read before the next scheduling
// choice: the caller changed state that the actor's gate or runnable
// function reads. Waking an actor whose answer did not change is harmless;
// failing to wake one whose answer did leaves the runtime scheduling on the
// stale answer.
func (rt *Runtime) Wake(id int) {
	if !rt.isWoken[id] {
		rt.isWoken[id] = true
		rt.woken = append(rt.woken, id)
	}
}

// Crash marks the process as crashed: it is never scheduled again. Its
// coroutine is reclaimed at Reset or Stop. Matches the crash-fault model
// where up to n−1 processes may stop taking steps.
func (rt *Runtime) Crash(id int) {
	if rt.procs[id].state != stateExited {
		rt.procs[id].state = stateCrashed
	}
	rt.Wake(id)
}

// Crashed reports whether the process has been crashed.
func (rt *Runtime) Crashed(id int) bool { return rt.procs[id].state == stateCrashed }

// Exited reports whether the process's body has returned. Schedule drivers
// use it to stop directing steps at finished processes.
func (rt *Runtime) Exited(id int) bool { return rt.procs[id].state == stateExited }

// canRun reads actor id's runnability: a spawned process that is ready or
// whose gate holds, or an aux actor whose runnable function holds.
func (rt *Runtime) canRun(id int) bool {
	if id >= rt.n {
		return rt.aux[id-rt.n].runnable()
	}
	p := rt.procs[id]
	if !p.spawned {
		return false
	}
	switch p.state {
	case stateReady:
		return true
	case stateGated:
		return p.gate()
	}
	return false
}

// refresh re-reads every woken actor and updates the runnable set. A gate
// read may wake further actors; they are re-read in the same pass.
func (rt *Runtime) refresh() {
	for i := 0; i < len(rt.woken); i++ {
		id := rt.woken[i]
		rt.isWoken[id] = false
		ok := rt.canRun(id)
		rt.rereads++
		if ok == rt.in[id] {
			rt.noops++
			continue
		}
		rt.in[id] = ok
		k := 0
		for k < len(rt.runnable) && rt.runnable[k] < id {
			k++
		}
		if ok {
			rt.runnable = append(rt.runnable, 0)
			copy(rt.runnable[k+1:], rt.runnable[k:])
			rt.runnable[k] = id
		} else {
			rt.runnable = append(rt.runnable[:k], rt.runnable[k+1:]...)
		}
	}
	rt.woken = rt.woken[:0]
}

// The outcomes of a scheduling choice that schedule nothing.
const (
	chooseLimit = -1 // the step count reached the drive's limit
	chooseStall = -2 // no actor is runnable
)

// choose makes one scheduling choice: unless the step count has reached the
// limit, it calls the before-step hook, re-reads the woken actors and asks
// the policy, then counts the step. It returns the chosen actor, or
// chooseLimit or chooseStall without counting a step.
func (rt *Runtime) choose() int {
	if rt.steps >= rt.limit {
		return chooseLimit
	}
	if rt.before != nil {
		rt.before(rt.steps)
	}
	rt.refresh()
	if verifying.Load() {
		rt.verify()
	}
	if len(rt.runnable) == 0 {
		return chooseStall
	}
	id := rt.policy.Next(rt.runnable, rt.steps)
	if id < 0 || id >= len(rt.in) || !rt.in[id] {
		panic(fmt.Sprintf("sched: policy chose non-runnable actor %d from %v", id, rt.runnable))
	}
	rt.steps++
	return id
}

// stepAux runs aux actor id's step; its runnability is re-read before the
// next choice.
func (rt *Runtime) stepAux(id int) {
	rt.aux[id-rt.n].step()
	rt.Wake(id)
}

// drive schedules steps until the step count reaches limit or no actor is
// runnable, and reports whether it reached the limit. It resumes the first
// process chosen; that process and the ones it resumes in turn make every
// further choice until the outcome yields back down the chain to here. A
// process that exits hands the choice back to its resumer, drive included.
func (rt *Runtime) drive(limit int, before func(step int)) bool {
	if rt.policy == nil {
		panic("sched: no policy installed")
	}
	rt.started = true
	rt.limit, rt.before = limit, before
	id := rt.choose()
	for id >= 0 {
		if id >= rt.n {
			rt.stepAux(id)
			id = rt.choose()
			continue
		}
		p := rt.procs[id]
		p.resume()
		if p.state != stateExited {
			id = rt.next
			continue
		}
		rt.Wake(id)
		id = rt.choose()
	}
	return id == chooseLimit
}

// Step schedules one actor step. It returns false — without scheduling —
// when no actor is runnable (the execution has stalled or completed).
func (rt *Runtime) Step() bool {
	return rt.drive(rt.steps+1, nil)
}

// Run schedules up to maxSteps steps and returns the number scheduled; fewer
// than maxSteps means the execution stalled (every process parked on a gate
// that never opens, crashed, or exited).
func (rt *Runtime) Run(maxSteps int) int { return rt.RunWith(maxSteps, nil) }

// RunWith is Run with a before-step hook: before, when non-nil, is called
// with the step count ahead of every scheduling choice, so RunWith takes
// exactly the steps of the loop
//
//	for i := 0; i < maxSteps; i++ {
//		before(rt.Steps())
//		if !rt.Step() {
//			break
//		}
//	}
//
// The hook may Crash processes, the one whose step just ended included. It
// runs on whichever coroutine makes the choice, and must not call back into
// Step, Run or RunWith.
func (rt *Runtime) RunWith(maxSteps int, before func(step int)) int {
	if maxSteps <= 0 {
		return 0
	}
	start := rt.steps
	limit := start + maxSteps
	if limit < start {
		limit = math.MaxInt
	}
	rt.drive(limit, before)
	return rt.steps - start
}

// halt unwinds the current execution: every spawned, non-exited process is
// resumed one final time, at which its body panics out (errStopped) and its
// coroutine parks, ready for the next Reset/Spawn cycle. It then adds the
// execution's round trips, re-reads and steps to tally.
func (rt *Runtime) halt() {
	if rt.stopped {
		return
	}
	rt.stopped = true
	for _, p := range rt.procs {
		if !p.live || !p.spawned || p.state == stateExited {
			continue
		}
		p.resume()
	}
	tally.trips.Add(int64(rt.trips))
	tally.rereads.Add(int64(rt.rereads))
	tally.noops.Add(int64(rt.noops))
	tally.steps.Add(int64(rt.steps))
	rt.trips, rt.rereads, rt.noops = 0, 0, 0
}

// tally sums the round trips, re-reads and steps of every execution that has
// ended, by Reset or Stop, in any runtime of the process: the cost of a
// hand-over and of refresh measured over a whole workload. Tests read it;
// nothing else does.
var tally struct{ trips, rereads, noops, steps atomic.Int64 }

// Stop ends every process coroutine; when it returns none is left running.
// The runtime cannot be used (or Reset) afterwards. Safe to call multiple
// times, and after a process body's panic has surfaced from Step.
func (rt *Runtime) Stop() {
	if rt.killed {
		return
	}
	rt.halt()
	rt.killed = true
	for _, p := range rt.procs {
		if p.live {
			p.stop()
		}
	}
}

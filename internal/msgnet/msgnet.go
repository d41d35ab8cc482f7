// Package msgnet is the asynchronous message-passing substrate: a reliable
// but unordered-and-unboundedly-delayed network among n crash-prone
// processes, integrated with the cooperative scheduler. The paper's
// possibility results use only read/write registers "hence can be simulated
// in asynchronous message-passing systems tolerating crash faults in less
// than half the processes [5]" — package abd builds that simulation (the
// ABD register emulation) on top of this network, closing the loop from the
// shared-memory theorems to deployable message-passing monitors.
//
// Delivery is adversarial: a network actor registered with the scheduler
// delivers exactly one pending message per actor step, chosen by a seeded
// policy, so message delays and reorderings are controlled by the same
// schedule machinery that drives process steps. Messages are never
// duplicated; by default they are never lost either, only delayed
// arbitrarily, which together with crash injection realizes the standard
// asynchronous crash-fault model. An explicit loss schedule (SetDrops, or the
// Schedule type that packages order, seed and drops for the explorer) lossily
// degrades the network deterministically: the k-th send vanishes for each
// scheduled k, so lossy runs replay bit-identically too.
//
// Every process is a client and a replica, with an inbox for each: a
// process's steps send requests (Send, Broadcast), which land in the
// recipients' replica inboxes, and the server that Serve installs for a
// process answers them with replies (AuxSend), which land in the requesters'
// client inboxes, where RecvAwait receives them. The scheduler re-reads a
// gate only when woken (sched.Runtime.Wake), and the network wakes only the
// actors whose answer a change can move: a send wakes the delivery actor, a
// change to a replica inbox wakes the server watching it, and a change to a
// client inbox wakes the process if it waits in RecvAwait — on an arrival,
// only if the filter matches it. A reply therefore never makes a replica
// rescan its requests, and a request never makes a parked client rescan its
// replies.
package msgnet

import (
	"math/rand"

	"github.com/drv-go/drv/internal/lazyrand"
	"github.com/drv-go/drv/internal/sched"
)

// Message is one unit of transfer. Payloads are opaque to the network.
type Message struct {
	// From and To are process IDs.
	From, To int
	// Tag routes the message to the protocol handler (e.g. "read-req").
	Tag string
	// Seq is a protocol-chosen sequence number; opaque to the network.
	Seq int
	// Body is the payload; opaque to the network.
	Body any
}

// Order decides which pending message the network delivers next. An order
// chooses by position among the pending messages, in send order, and by
// where they are addressed; it never reads what a message carries.
type Order interface {
	// Pick returns the index in [0, n) of the next of n ≥ 1 pending
	// messages to deliver; to(i) is the destination of the i-th.
	Pick(n int, to func(i int) int, step int) int
}

// FIFOOrder delivers messages in send order: the most synchronous-looking
// network, useful as a baseline.
func FIFOOrder() Order { return fifoOrder{} }

type fifoOrder struct{}

func (fifoOrder) Pick(int, func(int) int, int) int { return 0 }

// LIFOOrder delivers the newest pending message first: older messages get
// buried under fresh traffic, sustaining long partial-propagation windows (a
// broadcast caught mid-flight can stay mid-flight indefinitely) — the most
// adversarial deterministic order short of loss.
func LIFOOrder() Order { return lifoOrder{} }

type lifoOrder struct{}

func (lifoOrder) Pick(n int, _ func(int) int, _ int) int { return n - 1 }

// RandomOrder delivers a uniformly random pending message: the standard
// asynchronous adversary.
func RandomOrder(seed int64) Order {
	return &randomOrder{rng: rand.New(lazyrand.NewSource(seed))}
}

type randomOrder struct{ rng *rand.Rand }

func (o *randomOrder) Pick(n int, _ func(int) int, _ int) int {
	return o.rng.Intn(n)
}

// reseeder is the optional Order extension Net.Reset uses to re-arm a seeded
// order in place instead of rebuilding it: reseeding a lazyrand source
// re-arms, in O(1), the stream a fresh one yields, so a reseeded order picks
// the same delivery sequence as a fresh one.
type reseeder interface{ reseed(seed int64) }

func (o *randomOrder) reseed(seed int64) { o.rng.Seed(seed) }

func (o *starveOrder) reseed(seed int64) {
	if r, ok := o.inner.(reseeder); ok {
		r.reseed(seed)
	}
}

// StarveOrder starves one process: messages to the victim are delivered only
// when nothing else is pending. It exercises protocol liveness under maximal
// unfairness short of message loss.
func StarveOrder(victim int, inner Order) Order {
	o := &starveOrder{victim: victim, inner: inner}
	o.otherTo = func(i int) int { return o.to(o.other[i]) }
	return o
}

type starveOrder struct {
	victim int
	inner  Order
	// other is Pick's scratch, reused across deliveries: the pending indices
	// not addressed to the victim. The inner order picks among them by
	// count; otherTo shows it their destinations through the current
	// Pick's to.
	other   []int
	to      func(int) int
	otherTo func(int) int
}

func (o *starveOrder) Pick(n int, to func(int) int, step int) int {
	o.other = o.other[:0]
	for i := 0; i < n; i++ {
		if to(i) != o.victim {
			o.other = append(o.other, i)
		}
	}
	if len(o.other) == 0 {
		return o.inner.Pick(n, to, step)
	}
	o.to = to
	return o.other[o.inner.Pick(len(o.other), o.otherTo, step)]
}

// Net is the network. All methods must be called from the scheduler's caller
// or its process coroutines (one runs at a time), so no further
// synchronization is needed.
type Net struct {
	n     int
	order Order
	// orderKind names the Schedule order the net was built from ("" when the
	// order was passed directly to New); Schedule.Reset uses it to decide
	// whether the order can be reseeded in place.
	orderKind string
	pending   []envelope
	// dest is the Order's view of pending: dest(i) is pending[i]'s
	// destination. Bound once per Net.
	dest func(int) int
	// inboxes[id] holds what waits for process id's client, requests[id]
	// what waits for its replica, each in arrival order.
	inboxes  [][]Message
	requests [][]Message
	// rt is the runtime the delivery actor and the servers are registered on
	// (nil before Register or Serve), delivery the delivery actor's ID and
	// servers[id] the actor serving requests[id]; −1 when there is none.
	rt       *sched.Runtime
	delivery int
	servers  []int
	// gates[id] is process id's RecvAwait gate, built once per Net.
	gates   []*recvGate
	crashed []bool
	drops   map[int]bool
	sent    int
	deliv   int
}

// envelope is a message in flight, with the inbox side it is bound for.
type envelope struct {
	m   Message
	req bool
}

// recvGate is the condition a process parked in RecvAwait waits on: whether
// its client inbox holds a match. The network wakes the process whenever
// that inbox changes while it waits.
type recvGate struct {
	nt      *Net
	id      int
	match   func(Message) bool
	waiting bool
	cond    func() bool
}

func (g *recvGate) open() bool { return g.nt.InboxHas(g.id, g.match) }

// New builds a network for n processes with the given delivery order.
func New(n int, order Order) *Net {
	if order == nil {
		order = FIFOOrder()
	}
	nt := &Net{order: order}
	nt.Reset(n, order)
	return nt
}

// Reset restores the network to its freshly built state for n processes with
// the given delivery order, reusing the inbox and pending buffers — the
// pooled-lifecycle hook that lets emulations keep their *Net pointer across
// scenarios. Passing the current order (e.g. after reseeding it in place)
// keeps it. The delivery actor and the servers must be registered again.
func (nt *Net) Reset(n int, order Order) {
	if order == nil {
		order = FIFOOrder()
	}
	nt.n, nt.order = n, order
	nt.pending = nt.pending[:0]
	if nt.dest == nil {
		nt.dest = func(i int) int { return nt.pending[i].m.To }
	}
	nt.drops = nil
	nt.sent, nt.deliv = 0, 0
	nt.rt, nt.delivery = nil, -1
	if cap(nt.inboxes) >= n {
		nt.inboxes = nt.inboxes[:n]
		nt.requests = nt.requests[:n]
		nt.servers = nt.servers[:n]
		nt.crashed = nt.crashed[:n]
	} else {
		nt.inboxes = make([][]Message, n)
		nt.requests = make([][]Message, n)
		nt.servers = make([]int, n)
		nt.crashed = make([]bool, n)
	}
	for len(nt.gates) < n {
		g := &recvGate{nt: nt, id: len(nt.gates)}
		g.cond = g.open
		nt.gates = append(nt.gates, g)
	}
	for i := 0; i < n; i++ {
		nt.inboxes[i] = empty(nt.inboxes[i])
		nt.requests[i] = empty(nt.requests[i])
		nt.servers[i] = -1
		nt.crashed[i] = false
		nt.gates[i].match, nt.gates[i].waiting = nil, false
	}
}

// empty clears box and returns it with length zero, keeping its buffer.
func empty(box []Message) []Message {
	clear(box)
	return box[:0]
}

// remove deletes box[i], keeping the rest in arrival order.
func remove(box []Message, i int) []Message {
	copy(box[i:], box[i+1:])
	box[len(box)-1] = Message{}
	return box[:len(box)-1]
}

// wake tells the runtime actor's runnability may have changed; a no-op
// before the network is registered or for a missing actor (−1).
func (nt *Net) wake(actor int) {
	if nt.rt != nil && actor >= 0 {
		nt.rt.Wake(actor)
	}
}

// clientChanged wakes process id if it waits in RecvAwait: messages left its
// client inbox. A process that does not wait has no gate to re-read.
func (nt *Net) clientChanged(id int) {
	if nt.gates[id].waiting {
		nt.wake(id)
	}
}

// Inbox returns id's client inbox in arrival order. The slice is the
// network's own: read it, do not modify or keep it past the next change of
// the inbox.
func (nt *Net) Inbox(id int) []Message { return nt.inboxes[id] }

// Requests returns id's replica inbox in arrival order: the requests its
// server has yet to take. The slice is the network's own: read it, do not
// modify or keep it past the next change of the inbox.
func (nt *Net) Requests(id int) []Message { return nt.requests[id] }

// TakeRequest dequeues the i-th request of id's replica inbox without
// consuming a step — the receive half of a server's step, once it has picked
// a request by reading Requests.
func (nt *Net) TakeRequest(id, i int) Message {
	m := nt.requests[id][i]
	nt.requests[id] = remove(nt.requests[id], i)
	nt.wake(nt.servers[id])
	return m
}

// Register installs the delivery actor on the runtime and returns its actor
// ID for use in scheduling policies.
func (nt *Net) Register(rt *sched.Runtime) int {
	nt.rt = rt
	nt.delivery = rt.AddAux(nt.deliverable, nt.deliverStep)
	return nt.delivery
}

// Serve installs on the runtime the aux actor that serves process id's
// replica inbox, and returns its actor ID. Every change to that inbox — a
// delivered request, a TakeRequest, a Crash — wakes the actor, so its
// runnable function is re-read exactly when the requests it reads change; it
// must read nothing else that changes during a run.
func (nt *Net) Serve(rt *sched.Runtime, id int, runnable func() bool, step func()) int {
	nt.rt = rt
	nt.servers[id] = rt.AddAux(runnable, step)
	return nt.servers[id]
}

func (nt *Net) deliverable() bool { return len(nt.pending) > 0 }

// deliverStep moves one pending message into its destination inbox; the
// delivery event of the asynchronous network.
func (nt *Net) deliverStep() {
	i := nt.order.Pick(len(nt.pending), nt.dest, nt.deliv)
	e := nt.pending[i]
	nt.pending = append(nt.pending[:i], nt.pending[i+1:]...)
	nt.deliv++
	to := e.m.To
	if nt.crashed[to] {
		return // messages to crashed processes vanish
	}
	if e.req {
		nt.requests[to] = append(nt.requests[to], e.m)
		nt.wake(nt.servers[to])
		return
	}
	nt.inboxes[to] = append(nt.inboxes[to], e.m)
	// An arrival never closes a gate, and opens one only if it matches.
	if g := nt.gates[to]; g.waiting && (g.match == nil || g.match(e.m)) {
		nt.wake(to)
	}
}

// SetDrops installs a deterministic loss schedule: the k-th send (indexing
// the global send counter from zero) is dropped for every k in drops. Loss is
// a schedule, not a probability, so runs replay bit-identically; dropping a
// send that never happens is a no-op, mirroring crash schedules past the end
// of a run.
func (nt *Net) SetDrops(drops []int) {
	if len(drops) == 0 {
		nt.drops = nil
		return
	}
	nt.drops = make(map[int]bool, len(drops))
	for _, k := range drops {
		nt.drops[k] = true
	}
}

// enqueue assigns the message its global send index and either queues it for
// delivery to a replica inbox (req) or a client inbox, or drops it per the
// loss schedule.
func (nt *Net) enqueue(m Message, req bool) {
	k := nt.sent
	nt.sent++
	if nt.drops[k] {
		return
	}
	nt.pending = append(nt.pending, envelope{m: m, req: req})
	nt.wake(nt.delivery)
}

// Send enqueues a request for the recipient's replica inbox; one step for
// the sender. Sends by crashed processes are dropped by the scheduler never
// running them, not here.
func (nt *Net) Send(p *sched.Proc, m Message) {
	m.From = p.ID
	p.Pause()
	nt.enqueue(m, true)
}

// AuxSend enqueues a reply for the recipient's client inbox on behalf of
// process from without consuming a scheduler step — for servers, whose whole
// serve executes inline as one actor step. Sends by crashed processes are
// suppressed here because no scheduler gate exists for aux actors.
func (nt *Net) AuxSend(from int, m Message) {
	if nt.crashed[from] {
		return
	}
	m.From = from
	nt.enqueue(m, false)
}

// Broadcast sends request m to every process's replica inbox including the
// sender's (self-delivery models the standard "send to all" primitive); one
// step per recipient.
func (nt *Net) Broadcast(p *sched.Proc, m Message) {
	for to := 0; to < nt.n; to++ {
		mm := m
		mm.To = to
		nt.Send(p, mm)
	}
}

// InboxHas reports whether a message matching the filter waits in id's
// client inbox, without consuming a step. A nil filter matches everything.
func (nt *Net) InboxHas(id int, match func(Message) bool) bool {
	for _, m := range nt.inboxes[id] {
		if match == nil || match(m) {
			return true
		}
	}
	return false
}

// AuxRecv dequeues the oldest matching message of id's client inbox without
// consuming a step — the dequeue after an Await grant (the grant is the
// step).
func (nt *Net) AuxRecv(id int, match func(Message) bool) (Message, bool) {
	for i, m := range nt.inboxes[id] {
		if match == nil || match(m) {
			nt.inboxes[id] = remove(nt.inboxes[id], i)
			nt.clientChanged(id)
			return m, true
		}
	}
	return Message{}, false
}

// Discard removes every message matching the filter from id's client inbox,
// keeping the rest in arrival order, and returns how many it removed. It
// consumes no step: dropping a message nobody can ever receive is not an
// action of the model, only bookkeeping. Protocols call it on their own inbox
// for messages no filter of theirs can match again — ABD's late acks of a
// finished round (package abd) — so later receives and gates stop rescanning
// them. Discarding a message some future filter could still match would
// change the run; the caller owns that argument. A nil filter matches
// everything.
func (nt *Net) Discard(id int, match func(Message) bool) int {
	box := nt.inboxes[id]
	kept := box[:0]
	for _, m := range box {
		if match != nil && !match(m) {
			kept = append(kept, m)
		}
	}
	clear(box[len(kept):])
	nt.inboxes[id] = kept
	if len(kept) < len(box) {
		nt.clientChanged(id)
	}
	return len(box) - len(kept)
}

// RecvAwait parks p on the scheduler gate until a matching message waits in
// its client inbox, then dequeues it: the one receive a process makes. The
// whole receive costs one step (the grant) and never busy-waits, so a
// process starved of its quorum quiesces instead of burning the step budget.
// A nil filter matches everything.
//
// The scheduler re-reads the gate when p parks and whenever the client
// inbox changes while p waits, and at no other time. The filter must
// therefore be a pure function of the message for the whole wait: its
// answer for a message may not change while the message waits, since nothing
// would re-read it. Filters that close over a round's sequence number, fixed
// before the wait, qualify.
func (nt *Net) RecvAwait(p *sched.Proc, match func(Message) bool) Message {
	g := nt.gates[p.ID]
	g.match, g.waiting = match, true
	p.Await(g.cond)
	g.match, g.waiting = nil, false
	m, _ := nt.AuxRecv(p.ID, match)
	return m
}

// Crash marks a process crashed: both its inboxes are emptied, keeping their
// buffers for the next run, and future messages to it vanish. Call together
// with Runtime.Crash.
func (nt *Net) Crash(id int) {
	nt.crashed[id] = true
	nt.inboxes[id] = empty(nt.inboxes[id])
	nt.requests[id] = empty(nt.requests[id])
	nt.clientChanged(id)
	nt.wake(nt.servers[id])
}

// Stats returns how many messages were sent and delivered.
func (nt *Net) Stats() (sent, delivered int) { return nt.sent, nt.deliv }

// PendingCount returns the number of in-flight messages.
func (nt *Net) PendingCount() int { return len(nt.pending) }

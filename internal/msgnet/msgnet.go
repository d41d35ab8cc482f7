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

// Order decides which pending message the network delivers next.
type Order interface {
	// Pick returns an index into pending (non-empty).
	Pick(pending []Message, step int) int
}

// FIFOOrder delivers messages in send order: the most synchronous-looking
// network, useful as a baseline.
func FIFOOrder() Order { return fifoOrder{} }

type fifoOrder struct{}

func (fifoOrder) Pick([]Message, int) int { return 0 }

// LIFOOrder delivers the newest pending message first: older messages get
// buried under fresh traffic, sustaining long partial-propagation windows (a
// broadcast caught mid-flight can stay mid-flight indefinitely) — the most
// adversarial deterministic order short of loss.
func LIFOOrder() Order { return lifoOrder{} }

type lifoOrder struct{}

func (lifoOrder) Pick(pending []Message, _ int) int { return len(pending) - 1 }

// RandomOrder delivers a uniformly random pending message: the standard
// asynchronous adversary.
func RandomOrder(seed int64) Order {
	return &randomOrder{rng: rand.New(lazyrand.NewSource(seed))}
}

type randomOrder struct{ rng *rand.Rand }

func (o *randomOrder) Pick(pending []Message, _ int) int {
	return o.rng.Intn(len(pending))
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
	return &starveOrder{victim: victim, inner: inner}
}

type starveOrder struct {
	victim int
	inner  Order
	// other and sub are Pick's scratch, reused across deliveries: the
	// pending indices not addressed to the victim and their messages.
	other []int
	sub   []Message
}

func (o *starveOrder) Pick(pending []Message, step int) int {
	o.other = o.other[:0]
	for i, m := range pending {
		if m.To != o.victim {
			o.other = append(o.other, i)
		}
	}
	if len(o.other) == 0 {
		return o.inner.Pick(pending, step)
	}
	o.sub = o.sub[:0]
	for _, i := range o.other {
		o.sub = append(o.sub, pending[i])
	}
	return o.other[o.inner.Pick(o.sub, step)]
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
	pending   []Message
	inboxes   [][]Message
	// stamps[id] changes whenever inboxes[id] does. Values come from clock,
	// which only counts up, Reset included, so a stamp never repeats: a cache
	// keyed by a stamp is stale exactly when the inbox has changed since.
	stamps []uint64
	clock  uint64
	// gates[id] is process id's RecvAwait gate, built once per Net.
	gates   []*recvGate
	crashed []bool
	drops   map[int]bool
	sent    int
	deliv   int
}

// recvGate is the condition a process parked in RecvAwait waits on. It scans
// the inbox only when the inbox's stamp has moved since its last scan.
type recvGate struct {
	nt    *Net
	id    int
	match func(Message) bool
	seen  uint64 // stamp the last scan saw; 0, which no stamp takes, forces one
	has   bool   // whether that scan found a match
	cond  func() bool
}

func (g *recvGate) open() bool {
	if st := g.nt.stamps[g.id]; st != g.seen {
		g.seen, g.has = st, g.nt.InboxHas(g.id, g.match)
	}
	return g.has
}

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
// keeps it.
func (nt *Net) Reset(n int, order Order) {
	if order == nil {
		order = FIFOOrder()
	}
	nt.n, nt.order = n, order
	nt.pending = nt.pending[:0]
	nt.drops = nil
	nt.sent, nt.deliv = 0, 0
	if cap(nt.inboxes) >= n {
		nt.inboxes = nt.inboxes[:n]
		nt.stamps = nt.stamps[:n]
		nt.crashed = nt.crashed[:n]
	} else {
		nt.inboxes = make([][]Message, n)
		nt.stamps = make([]uint64, n)
		nt.crashed = make([]bool, n)
	}
	for len(nt.gates) < n {
		g := &recvGate{nt: nt, id: len(nt.gates)}
		g.cond = g.open
		nt.gates = append(nt.gates, g)
	}
	for i := 0; i < n; i++ {
		clear(nt.inboxes[i])
		nt.inboxes[i] = nt.inboxes[i][:0]
		nt.crashed[i] = false
		nt.touch(i)
	}
}

// touch gives id's inbox a fresh stamp: the inbox has changed.
func (nt *Net) touch(id int) {
	nt.clock++
	nt.stamps[id] = nt.clock
}

// Stamp returns id's inbox stamp. It changes whenever the inbox does — by a
// delivery, a receive, a Discard that removes something, a Crash or a Reset —
// and never returns to an earlier value, so a caller may cache any answer it
// computed from the inbox for as long as the stamp stays the same.
func (nt *Net) Stamp(id int) uint64 { return nt.stamps[id] }

// Inbox returns id's waiting messages in arrival order. The slice is the
// network's own: read it, do not modify or keep it past the next change of
// the inbox's stamp.
func (nt *Net) Inbox(id int) []Message { return nt.inboxes[id] }

// Take dequeues the i-th message of id's inbox without consuming a step — the
// receive half of an aux actor's serve, once it has picked a message by
// reading Inbox.
func (nt *Net) Take(id, i int) Message {
	box := nt.inboxes[id]
	m := box[i]
	copy(box[i:], box[i+1:])
	box[len(box)-1] = Message{}
	nt.inboxes[id] = box[:len(box)-1]
	nt.touch(id)
	return m
}

// Register installs the delivery actor on the runtime and returns its actor
// ID for use in scheduling policies.
func (nt *Net) Register(rt *sched.Runtime) int {
	return rt.AddAux("msgnet-delivery", nt.deliverable, nt.deliverStep)
}

func (nt *Net) deliverable() bool { return len(nt.pending) > 0 }

// deliverStep moves one pending message into its destination inbox; the
// delivery event of the asynchronous network.
func (nt *Net) deliverStep() {
	i := nt.order.Pick(nt.pending, nt.deliv)
	m := nt.pending[i]
	nt.pending = append(nt.pending[:i], nt.pending[i+1:]...)
	nt.deliv++
	if nt.crashed[m.To] {
		return // messages to crashed processes vanish
	}
	nt.inboxes[m.To] = append(nt.inboxes[m.To], m)
	nt.touch(m.To)
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
// delivery or drops it per the loss schedule.
func (nt *Net) enqueue(m Message) {
	k := nt.sent
	nt.sent++
	if nt.drops[k] {
		return
	}
	nt.pending = append(nt.pending, m)
}

// Send enqueues a message; one step for the sender. Sends by crashed
// processes are dropped by the scheduler never running them, not here.
func (nt *Net) Send(p *sched.Proc, m Message) {
	m.From = p.ID
	p.Pause()
	nt.enqueue(m)
}

// AuxSend enqueues a message on behalf of process from without consuming a
// scheduler step — for replica aux actors, whose whole serve executes inline
// as one actor step. Sends by crashed processes are suppressed here because
// no scheduler gate exists for aux actors.
func (nt *Net) AuxSend(from int, m Message) {
	if nt.crashed[from] {
		return
	}
	m.From = from
	nt.enqueue(m)
}

// Broadcast sends m to every process including the sender (self-delivery
// models the standard "send to all" primitive); one step per recipient.
func (nt *Net) Broadcast(p *sched.Proc, m Message) {
	for to := 0; to < nt.n; to++ {
		mm := m
		mm.To = to
		nt.Send(p, mm)
	}
}

// InboxHas reports whether a message matching the filter waits in id's inbox,
// without consuming a step — for aux-actor runnable gates and Await
// conditions. A nil filter matches everything.
func (nt *Net) InboxHas(id int, match func(Message) bool) bool {
	for _, m := range nt.inboxes[id] {
		if match == nil || match(m) {
			return true
		}
	}
	return false
}

// AuxRecv dequeues the oldest matching inbox message without consuming a
// step — the receive half of an aux actor's serve, or the dequeue after an
// Await grant (the grant is the step).
func (nt *Net) AuxRecv(id int, match func(Message) bool) (Message, bool) {
	for i, m := range nt.inboxes[id] {
		if match == nil || match(m) {
			return nt.Take(id, i), true
		}
	}
	return Message{}, false
}

// Discard removes every message matching the filter from id's inbox, keeping
// the rest in arrival order, and returns how many it removed. It consumes no
// step: dropping a message nobody can ever receive is not an action of the
// model, only bookkeeping. Protocols call it on their own inbox for messages
// no filter of theirs can match again — ABD's late acks of a finished round
// (package abd) — so later receives and runnable gates stop rescanning them.
// Discarding a message some future filter could still match would change the
// run; the caller owns that argument. A nil filter matches everything.
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
		nt.touch(id)
	}
	return len(box) - len(kept)
}

// RecvAwait parks p on the scheduler gate until a matching message waits in
// its inbox, then dequeues it: the one receive a process makes. The whole
// receive costs one step (the grant) and never busy-waits, so a process
// starved of its quorum quiesces instead of burning the step budget. A nil
// filter matches everything.
//
// The gate rescans the inbox only when its stamp has moved, so the filter
// must be a pure function of the message for the whole wait: its answer for
// a message may not change while the message waits, since nothing would
// rescan it. Filters that close over a round's sequence number, fixed before
// the wait, qualify.
func (nt *Net) RecvAwait(p *sched.Proc, match func(Message) bool) Message {
	g := nt.gates[p.ID]
	g.match, g.seen = match, 0
	p.Await(g.cond)
	g.match = nil
	m, _ := nt.AuxRecv(p.ID, match)
	return m
}

// Crash marks a process crashed: its inbox is emptied, keeping its buffer for
// the next run, and future messages to it vanish. Call together with
// Runtime.Crash.
func (nt *Net) Crash(id int) {
	nt.crashed[id] = true
	clear(nt.inboxes[id])
	nt.inboxes[id] = nt.inboxes[id][:0]
	nt.touch(id)
}

// Stats returns how many messages were sent and delivered.
func (nt *Net) Stats() (sent, delivered int) { return nt.sent, nt.deliv }

// PendingCount returns the number of in-flight messages.
func (nt *Net) PendingCount() int { return len(nt.pending) }

// Package abd implements the Attiya–Bar-Noy–Dolev emulation of atomic
// single-writer and multi-writer read/write registers over asynchronous
// message passing with crash faults in a minority of processes [5]. It
// closes the paper's porting remark: "our possibility results use only
// read/write registers, hence can be simulated in asynchronous
// message-passing systems tolerating crash faults in less than half the
// processes". The monitors of Figures 5, 8 and 9 run unchanged on registers
// emulated by this package, which the message-passing experiments and the
// examples/messagepassing program demonstrate.
//
// The protocol is the standard two-phase quorum emulation. Every process is
// both a client and a server replica holding a (timestamp, writer, value)
// triple. A write queries a majority for the highest timestamp, picks a
// higher one (tie-broken by writer ID), and propagates it to a majority. A
// read queries a majority for the highest triple and then writes it back to
// a majority before returning — the write-back is what makes reads atomic
// rather than merely regular.
//
// Replicas are served only by scheduler aux actors, one per process,
// installed by Servers; a client waiting for its quorum parks on
// msgnet.Net.RecvAwait. Requests travel to a process's replica inbox and acks
// to its client inbox, so neither side rescans the other's traffic. A
// deployment calls Servers once per run before stepping it, and the run
// drains on its own once every live client has finished.
package abd

import (
	"slices"

	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
)

// Tags of the protocol's four message types plus their replies.
const (
	tagQueryReq = "abd-query-req" // phase 1 request: send me your triple
	tagQueryAck = "abd-query-ack" // phase 1 reply
	tagStoreReq = "abd-store-req" // phase 2 request: adopt this triple
	tagStoreAck = "abd-store-ack" // phase 2 reply
)

// triple is a replica's state: a Lamport-style timestamp, the writer that
// chose it (tie-breaker), and the value.
type triple struct {
	TS     int
	Writer int
	Value  int64
}

// newer reports whether a is strictly newer than b in (TS, Writer) order.
func (a triple) newer(b triple) bool {
	return a.TS > b.TS || (a.TS == b.TS && a.Writer > b.Writer)
}

// Register is one emulated multi-writer multi-reader atomic register. A
// deployment creates one Register per shared variable, all multiplexed over
// the same network via distinct register names, and serves their replicas
// through Servers.
type Register struct {
	name string
	n    int
	net  *msgnet.Net

	replicas []triple
	seq      []int // per-process RPC sequence numbers

	// noWriteBack is the seeded bug of DropReadWriteBack: reads skip the
	// write-back phase, demoting the register from atomic to regular.
	noWriteBack bool
	// noWriteStore is the seeded bug of DropWriteStore: writes never
	// propagate past the writer's own replica.
	noWriteStore bool
}

// NewRegister creates an emulated register named name (names multiplex the
// shared network) for n processes, initialized to init.
func NewRegister(name string, n int, net *msgnet.Net, init int64) *Register {
	r := &Register{name: name, net: net}
	r.Reset(n)
	return r
}

// Reset restores the register to its freshly constructed state for n
// processes, reusing the replica and sequence buffers. The name, the network
// binding and the seeded-bug flags (construction parameters) survive.
func (r *Register) Reset(n int) {
	r.n = n
	if cap(r.replicas) >= n {
		r.replicas = r.replicas[:n]
		r.seq = r.seq[:n]
	} else {
		r.replicas = make([]triple, n)
		r.seq = make([]int, n)
	}
	for i := 0; i < n; i++ {
		r.replicas[i] = triple{}
		r.seq[i] = 0
	}
}

// DropReadWriteBack disables the read's write-back phase — the classic
// seeded protocol bug: without it two sequential reads can see a concurrent
// write new-then-old (the register is regular, not atomic), and a process's
// own reads can even run backwards because a query quorum need not contain
// the reader's replica. Returns r for chaining at construction sites.
func (r *Register) DropReadWriteBack() *Register {
	r.noWriteBack = true
	return r
}

// DropWriteStore disables the write's store phase: the new triple lands only
// in the writer's own replica, so a completed write is visible to a later
// quorum read only when that quorum happens to include the writer. Returns r
// for chaining at construction sites.
func (r *Register) DropWriteStore() *Register {
	r.noWriteStore = true
	return r
}

// request reports whether m is a request for this register's replica.
func (r *Register) request(_ int, m msgnet.Message) bool {
	if m.Tag != tagQueryReq && m.Tag != tagStoreReq {
		return false
	}
	b, isB := m.Body.(body)
	return isB && b.Reg == r.name
}

// handle answers one replica-side request on behalf of replica id, sending
// the reply inline from the replica's aux actor.
func (r *Register) handle(id int, m msgnet.Message) {
	b := m.Body.(body)
	switch m.Tag {
	case tagQueryReq:
		r.net.AuxSend(id, msgnet.Message{
			To: m.From, Tag: tagQueryAck, Seq: m.Seq,
			Body: body{Reg: r.name, Trip: r.replicas[id]},
		})
	case tagStoreReq:
		if b.Trip.newer(r.replicas[id]) {
			r.replicas[id] = b.Trip
		}
		r.net.AuxSend(id, msgnet.Message{
			To: m.From, Tag: tagStoreAck, Seq: m.Seq,
			Body: body{Reg: r.name},
		})
	}
}

func (r *Register) network() *msgnet.Net { return r.net }

// Server is the replica side of a message-passing emulation, served by the
// aux actors Servers installs.
type Server interface {
	// request reports whether m is a request replica id serves.
	request(id int, m msgnet.Message) bool
	// handle answers request m on behalf of replica id, inline.
	handle(id int, m msgnet.Message)
	// network is the network the replica's requests arrive on.
	network() *msgnet.Net
}

// Servers installs one aux actor per process that serves every given
// emulation's replica at that process — the only way replicas answer, so a
// deployment calls it once per run before stepping. Clients parked on their
// quorums therefore cannot deadlock the emulation: the aux actors answer
// while every process waits. Crashes need no extra wiring:
// msgnet.Net.Crash empties the process's inboxes, so its server actor is
// never runnable again. The servers must share one network. Returns the aux
// actor IDs in process order.
//
// A step serves one request: the oldest request of the first server, in srvs
// order, that has one waiting. Each actor watches its process's replica
// inbox (msgnet.Net.Serve), so the scheduler re-reads it — one pick over the
// waiting requests — only when a request arrives, is served or is dropped by
// a crash. A request is routed to its server once, when the first re-read
// after its arrival sees it, so a pick compares server ranks only.
func Servers(rt *sched.Runtime, n int, srvs ...Server) []int {
	actors := make([]replica, n)
	ids := make([]int, n)
	nt := srvs[0].network()
	for i := range actors {
		a := &actors[i]
		*a = replica{nt: nt, id: i, srvs: srvs}
		ids[i] = nt.Serve(rt, i, a.runnable, a.step)
	}
	return ids
}

// replica is the aux actor of one process's replicas, with its pick.
type replica struct {
	nt   *msgnet.Net
	id   int
	srvs []Server
	// rank[i] is the index in srvs of the server the i-th request of the
	// replica inbox is for, len(srvs) when it is for none.
	rank []int
	at   int // index in the replica inbox of the request the next step serves, or −1
}

// runnable is the actor's gate: whether a request waits. It routes the
// requests that arrived since the last re-read and picks the request the
// next step serves.
func (a *replica) runnable() bool {
	requests := a.nt.Requests(a.id)
	if len(requests) < len(a.rank) {
		a.rank = a.rank[:0] // a crash emptied the inbox
	}
	for _, m := range requests[len(a.rank):] {
		a.rank = append(a.rank, route(m, a.id, a.srvs))
	}
	a.at = pick(a.rank, len(a.srvs))
	return a.at >= 0
}

// step serves the picked request. Every change to the replica inbox wakes
// the actor, and the scheduler re-reads a woken actor before its next
// choice, so the pick is current.
func (a *replica) step() {
	k := a.rank[a.at]
	a.rank = slices.Delete(a.rank, a.at, a.at+1)
	a.srvs[k].handle(a.id, a.nt.TakeRequest(a.id, a.at))
}

// route returns the index in srvs of the first server m is a request for
// at replica id, len(srvs) when there is none.
func route(m msgnet.Message, id int, srvs []Server) int {
	for k, s := range srvs {
		if s.request(id, m) {
			return k
		}
	}
	return len(srvs)
}

// pick returns the index of the oldest request of the first server that has
// one, given each waiting request's server rank, or −1 when no rank is
// below none.
func pick(rank []int, none int) int {
	at := -1
	for i, k := range rank {
		if k < none && (at < 0 || k < rank[at]) {
			at = i
			if k == 0 {
				break
			}
		}
	}
	return at
}

// body is the payload of every protocol message.
type body struct {
	Reg  string
	Trip triple
}

// quorum returns the majority size.
func (r *Register) quorum() int { return r.n/2 + 1 }

// rpc broadcasts a request and gathers acks from a majority, parking until
// each ack arrives: replicas answer from their Servers aux actors, and a
// client whose quorum can never form (too many crashes, dropped messages)
// quiesces instead of spinning. Returns the collected ack triples.
//
// Gathering stops at a quorum, so up to n−quorum acks of every round arrive
// late and would sit in the client's inbox forever, rescanned by every later
// receive and gate. They are dead: an ack is matched only by the rpc of its
// own round (matchAck requires m.Seq == seq) and this process's sequence
// number for the register only grows. So each rpc first discards the
// register's acks of earlier rounds from its own inbox — a zero-step
// bookkeeping action no filter can observe.
func (r *Register) rpc(p *sched.Proc, reqTag, ackTag string, trip triple) []triple {
	r.seq[p.ID]++
	seq := r.seq[p.ID]
	r.net.Discard(p.ID, func(m msgnet.Message) bool {
		if m.Seq >= seq || (m.Tag != tagQueryAck && m.Tag != tagStoreAck) {
			return false
		}
		b, isB := m.Body.(body)
		return isB && b.Reg == r.name
	})
	r.net.Broadcast(p, msgnet.Message{
		Tag: reqTag, Seq: seq,
		Body: body{Reg: r.name, Trip: trip},
	})
	matchAck := func(m msgnet.Message) bool {
		if m.Seq != seq || m.Tag != ackTag {
			return false
		}
		b, isB := m.Body.(body)
		return isB && b.Reg == r.name
	}
	acks := make([]triple, 0, r.quorum())
	for len(acks) < r.quorum() {
		m := r.net.RecvAwait(p, matchAck)
		acks = append(acks, m.Body.(body).Trip)
	}
	return acks
}

// maxTriple returns the newest triple among ts.
func maxTriple(ts []triple) triple {
	best := ts[0]
	for _, t := range ts[1:] {
		if t.newer(best) {
			best = t
		}
	}
	return best
}

// Write performs an atomic write: query a majority for the newest timestamp,
// then store a strictly newer triple at a majority (unless DropWriteStore
// seeded the propagation bug).
func (r *Register) Write(p *sched.Proc, v int64) {
	acks := r.rpc(p, tagQueryReq, tagQueryAck, triple{})
	cur := maxTriple(acks)
	next := triple{TS: cur.TS + 1, Writer: p.ID, Value: v}
	if next.newer(r.replicas[p.ID]) {
		r.replicas[p.ID] = next // adopt locally first
	}
	if r.noWriteStore {
		return
	}
	r.rpc(p, tagStoreReq, tagStoreAck, next)
}

// Read performs an atomic read: query a majority for the newest triple,
// write it back to a majority, then return its value. With DropReadWriteBack
// the whole write-back phase — local adoption included — is skipped: the
// read returns the newest triple it saw and stores it nowhere, so a value
// held only by a minority (a write caught mid-store) can be seen by one read
// and missed by the next.
func (r *Register) Read(p *sched.Proc) int64 {
	acks := r.rpc(p, tagQueryReq, tagQueryAck, triple{})
	cur := maxTriple(acks)
	if r.noWriteBack {
		return cur.Value
	}
	if cur.newer(r.replicas[p.ID]) {
		r.replicas[p.ID] = cur
	}
	r.rpc(p, tagStoreReq, tagStoreAck, cur)
	return cur.Value
}

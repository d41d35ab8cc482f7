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
// msgnet.Net.RecvAwait. A deployment therefore calls Servers once per run
// before stepping it, and the run drains on its own once every live client
// has finished.
package abd

import (
	"fmt"

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

// isRequest filters this register's replica-side protocol messages.
func (r *Register) isRequest(m msgnet.Message) bool {
	b, isB := m.Body.(body)
	return isB && b.Reg == r.name && (m.Tag == tagQueryReq || m.Tag == tagStoreReq)
}

// anyRequest reports whether a request for any of regs — registers on one
// network, such as a counter's cells — waits in id's inbox. One scan answers
// for the whole group where asking each register would scan once per
// register.
func anyRequest(regs []*Register, id int) bool {
	nt := regs[0].net
	return requestsWaiting(nt, id) && nt.InboxHas(id, func(m msgnet.Message) bool {
		if m.Tag != tagQueryReq && m.Tag != tagStoreReq {
			return false
		}
		b, isB := m.Body.(body)
		if !isB {
			return false
		}
		for _, r := range regs {
			if b.Reg == r.name {
				return true
			}
		}
		return false
	})
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

// HasRequest reports whether a protocol request for replica id is waiting —
// the runnable gate of the replica's aux actor. The scheduler evaluates it on
// every step, so the common negative answer comes from the network's per-tag
// counts without scanning the inbox.
func (r *Register) HasRequest(id int) bool {
	return requestsWaiting(r.net, id) && r.net.InboxHas(id, r.isRequest)
}

// requestsWaiting reports whether any replica-side request, of any register,
// waits in id's inbox.
func requestsWaiting(nt *msgnet.Net, id int) bool {
	return nt.Waiting(id, tagQueryReq)+nt.Waiting(id, tagStoreReq) > 0
}

// ServeStep answers one pending request for replica id inline, without a
// Proc — the step body of the replica's aux actor. Returns false when
// nothing was pending.
func (r *Register) ServeStep(id int) bool {
	m, ok := r.net.AuxRecv(id, r.isRequest)
	if !ok {
		return false
	}
	r.handle(id, m)
	return true
}

// Server is the replica side of a message-passing emulation, servable from a
// scheduler aux actor: HasRequest gates the actor, ServeStep is its step.
type Server interface {
	HasRequest(id int) bool
	ServeStep(id int) bool
}

// Servers installs one aux actor per process that serves every given
// emulation's replica at that process — the only way replicas answer, so a
// deployment calls it once per run before stepping. Clients parked on their
// quorums therefore cannot deadlock the emulation: the aux actors answer
// while every process waits. Crashes need no extra wiring:
// msgnet.Net.Crash empties the process's inbox, so its server actor is never
// runnable again. Returns the aux actor IDs in process order.
func Servers(rt *sched.Runtime, n int, srvs ...Server) []int {
	// The gate is an OR over the servers, so it may ask in any order: the
	// registers on one network are asked together with a single inbox scan.
	var regs []*Register
	var others []Server
	for _, s := range srvs {
		if r, ok := s.(*Register); ok && (len(regs) == 0 || r.net == regs[0].net) {
			regs = append(regs, r)
		} else {
			others = append(others, s)
		}
	}
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		runnable := func() bool {
			if len(regs) > 0 && anyRequest(regs, i) {
				return true
			}
			for _, s := range others {
				if s.HasRequest(i) {
					return true
				}
			}
			return false
		}
		step := func() {
			for _, s := range srvs {
				if s.ServeStep(i) {
					return
				}
			}
		}
		ids = append(ids, rt.AddAux(fmt.Sprintf("abd-server-%d", i), runnable, step))
	}
	return ids
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
	if r.net.Waiting(p.ID, tagQueryAck)+r.net.Waiting(p.ID, tagStoreAck) > 0 {
		r.net.Discard(p.ID, func(m msgnet.Message) bool {
			b, isB := m.Body.(body)
			return isB && b.Reg == r.name && (m.Tag == tagQueryAck || m.Tag == tagStoreAck) && m.Seq < seq
		})
	}
	r.net.Broadcast(p, msgnet.Message{
		Tag: reqTag, Seq: seq,
		Body: body{Reg: r.name, Trip: trip},
	})
	matchAck := func(m msgnet.Message) bool {
		b, isB := m.Body.(body)
		return isB && b.Reg == r.name && m.Tag == ackTag && m.Seq == seq
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

package abd

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// Consensus message tags.
const (
	tagProposeReq = "cons-propose-req"
	tagProposeAck = "cons-propose-ack"
)

// Consensus emulates one-shot consensus with a fixed coordinator at process
// 0: propose(v) sends the proposal to the coordinator's replica, which
// decides the first proposal it serves and acknowledges every proposal with
// the decided value. Decisions linearize at the coordinator, so histories
// are linearizable against trace.Consensus. The protocol is safe but not
// fault-tolerant — if the coordinator crashes, outstanding and future
// proposals never return — which the explorer's truncated-run handling
// tolerates: pending proposals are pending operations, nothing more.
type Consensus struct {
	name string
	n    int
	net  *msgnet.Net

	decided bool
	val     int64
	echo    bool // seeded bug: acknowledge with the proposer's own value
	seq     []int
}

// NewConsensus creates an emulated consensus instance named name for n
// processes, coordinated by process 0's replica.
func NewConsensus(name string, n int, net *msgnet.Net) *Consensus {
	c := &Consensus{name: name, net: net}
	c.Reset(n)
	return c
}

// Reset restores the instance to its freshly constructed, undecided state for
// n processes; the name, the network binding and the Echo bug (a construction
// parameter) survive.
func (c *Consensus) Reset(n int) {
	c.n = n
	c.decided, c.val = false, 0
	if cap(c.seq) >= n {
		c.seq = c.seq[:n]
	} else {
		c.seq = make([]int, n)
	}
	for i := 0; i < n; i++ {
		c.seq[i] = 0
	}
}

// Echo seeds the agreement bug: the coordinator still records the first
// proposal as decided but acknowledges every proposal with the proposer's
// own value, so two proposers can return different decisions. Returns c for
// chaining at construction sites.
func (c *Consensus) Echo() *Consensus {
	c.echo = true
	return c
}

// cbody is the payload of consensus protocol messages.
type cbody struct {
	Name string
	Val  int64
}

// Propose submits v and parks until the coordinator's decision arrives.
func (c *Consensus) Propose(p *sched.Proc, v int64) int64 {
	c.seq[p.ID]++
	seq := c.seq[p.ID]
	c.net.Send(p, msgnet.Message{
		To: 0, Tag: tagProposeReq, Seq: seq,
		Body: cbody{Name: c.name, Val: v},
	})
	m := c.net.RecvAwait(p, func(m msgnet.Message) bool {
		b, isB := m.Body.(cbody)
		return isB && b.Name == c.name && m.Tag == tagProposeAck && m.Seq == seq
	})
	return m.Body.(cbody).Val
}

// request reports whether m is a proposal to this instance; only the
// coordinator's replica serves.
func (c *Consensus) request(id int, m msgnet.Message) bool {
	if id != 0 || m.Tag != tagProposeReq {
		return false
	}
	b, isB := m.Body.(cbody)
	return isB && b.Name == c.name
}

// handle decides on the first proposal served and acknowledges m.
func (c *Consensus) handle(id int, m msgnet.Message) {
	b := m.Body.(cbody)
	if !c.decided {
		c.decided, c.val = true, b.Val
	}
	reply := c.val
	if c.echo {
		reply = b.Val
	}
	c.net.AuxSend(id, msgnet.Message{
		To: m.From, Tag: tagProposeAck, Seq: m.Seq,
		Body: cbody{Name: c.name, Val: reply},
	})
}

func (c *Consensus) network() *msgnet.Net { return c.net }

// ConsensusImpl adapts an emulated consensus instance to sut.Impl.
type ConsensusImpl struct {
	cons *Consensus
	name string
}

var _ sut.Impl = (*ConsensusImpl)(nil)

// NewConsensusImpl wraps an emulated consensus instance.
func NewConsensusImpl(cons *Consensus) *ConsensusImpl {
	return &ConsensusImpl{cons: cons, name: "consensus/coord"}
}

// WithName overrides the reported implementation name (bug variants).
func (c *ConsensusImpl) WithName(name string) *ConsensusImpl {
	c.name = name
	return c
}

// Name implements sut.Impl.
func (c *ConsensusImpl) Name() string { return c.name }

// Reset implements sut.Impl by delegation to the wrapped emulation.
func (c *ConsensusImpl) Reset(n int) { c.cons.Reset(n) }

// Invoke implements sut.Impl.
func (c *ConsensusImpl) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	if op != trace.OpPropose {
		panic(fmt.Sprintf("abd: consensus does not implement %q", op))
	}
	return trace.Int(c.cons.Propose(p, int64(arg.(trace.Int))))
}

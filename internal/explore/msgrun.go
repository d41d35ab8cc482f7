package explore

// The message-passing scenario family (FamMsg, spec grammar drv3) is the
// object family plus a network. Where objRegistry lists shared-memory
// implementations, msgRegistry lists objects *emulated over asynchronous
// message passing* — the ABD register of package abd and the snapshot-counter
// and coordinator-consensus walks built on it. Both run down one path,
// executeObj: the same workload, the same deployment stack (the timed
// adversary Aτ, the Figure 8 predictive monitor V_O), the same check battery
// and the same findings split. The one message-passing step is the
// network: internal/msgnet under a seeded deterministic schedule (delivery
// order, delay, reorder and loss) is armed per scenario, and its delivery
// actor and the emulation's replica servers run as scheduler aux actors. This
// file holds the emulation table and that network plumbing.
//
// The oracle split is the object family's: a violated property the emulation
// guarantees is a Divergence; a violated property a seeded-bug variant
// forfeits — the ABD read that skips its write-back phase, the counter that
// never propagates increments, the coordinator that echoes each proposer's
// own value — is an OracleFailure. Shrinking gains a network axis: bug
// reproducers drop their loss schedule entry by entry before processes,
// operations and steps.

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sut"
)

// netSalt derives the network-order stream from the spec seed, independent
// of the policy (0x5eed) and workload (0x3ead) streams.
const netSalt = 0x0abd

// msgRegistry lists the message-passing scenarios, in deterministic order.
// The ground-truth flags restate what package abd's tests pin: the ABD
// register is atomic (its no-write-back variant is merely regular, and even
// a process's own reads can run backwards, so it forfeits SC too); the
// emulated counter — per-process ABD cells plus a collect read — stays
// linearizable because the cells are monotone single-writer atomic registers
// (its lost-increment variant under-counts and can violate SEC safety when a
// read's quorums miss the incrementing replica); coordinator consensus
// decides the first proposal the coordinator serves (its echo variant
// acknowledges every proposer with its own value, so two completed proposals
// with distinct values disagree).
var msgRegistry = []objDef{
	{
		obj: trace.Register(), safety: lang.SC,
		impls: []implDef{
			{name: "abd", lin: true, safe: true, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				r := abd.NewRegister("x", n, nt, 0)
				return abd.NewRegisterImpl(r), func() []abd.Server { return []abd.Server{r} }
			}},
			{name: "nowriteback", lin: false, safe: false, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				r := abd.NewRegister("x", n, nt, 0).DropReadWriteBack()
				return abd.NewRegisterImpl(r).WithName("register/nowriteback"), func() []abd.Server { return []abd.Server{r} }
			}},
		},
	},
	{
		obj: trace.Counter(), safety: lang.SEC,
		impls: []implDef{
			{name: "abd", lin: true, safe: true, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				c := abd.NewCounter("c", n, nt)
				return abd.NewCounterImpl(c), func() []abd.Server { return counterServers(c) }
			}},
			{name: "lost", lin: false, safe: false, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				c := abd.NewCounter("c", n, nt).DropIncStore()
				return abd.NewCounterImpl(c).WithName("counter/lost"), func() []abd.Server { return counterServers(c) }
			}},
		},
	},
	{
		obj: trace.Consensus(), safety: lang.SC,
		impls: []implDef{
			{name: "coord", lin: true, safe: true, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				c := abd.NewConsensus("k", n, nt)
				return abd.NewConsensusImpl(c), func() []abd.Server { return []abd.Server{c} }
			}},
			{name: "echo", lin: false, safe: false, make: func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server) {
				c := abd.NewConsensus("k", n, nt).Echo()
				return abd.NewConsensusImpl(c).WithName("consensus/echo"), func() []abd.Server { return []abd.Server{c} }
			}},
		},
	},
}

// counterServers gathers an emulated counter's per-cell replica servers.
func counterServers(c *abd.Counter) []abd.Server {
	srvs := make([]abd.Server, 0, len(c.Cells()))
	for _, cell := range c.Cells() {
		srvs = append(srvs, cell)
	}
	return srvs
}

// msgService couples the workload service to the scenario's network: a crash
// must reach both the scheduler (stopping the client) and the network
// (emptying the inbox, silencing the replica's aux server, voiding future
// deliveries). Aτ forwards Crash to its inner service, which lands here.
type msgService struct {
	*sut.Service
	net *msgnet.Net
}

// Crash routes a crash into the network; the scheduler half is the runner's.
func (m *msgService) Crash(id int) { m.net.Crash(id) }

// msgSchedule derives the scenario's network schedule: the spec's order and
// loss schedule, seeded from the net stream for the seeded orders.
func msgSchedule(s Spec) msgnet.Schedule {
	sch := msgnet.Schedule{Order: s.NetOrder, Drops: s.Drops}
	if s.NetOrder == msgnet.OrderRandom || s.NetOrder == msgnet.OrderStarve {
		sch.Seed = mix(s.Seed, netSalt)
	}
	return sch
}

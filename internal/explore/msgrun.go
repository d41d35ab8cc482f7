package explore

// The message-passing scenario family (FamMsg, spec grammar drv3): where the
// object family runs shared-memory implementations, this family runs objects
// *emulated over asynchronous message passing* — the ABD register of package
// abd and the snapshot-counter and coordinator-consensus walks built on it —
// on internal/msgnet under a seeded deterministic network schedule (delivery
// order, delay, reorder and loss) plus the usual crash schedule. The clients
// drive through the same deployment stack as the object family (the timed
// adversary Aτ, the Figure 8 predictive monitor V_O), replica servers run as
// scheduler aux actors, and the exhibited history of the *emulated* object is
// judged offline by the same class oracles, differentially against the
// brute-force reference, and against the monitor's verdict stream.
//
// The oracle split mirrors the object family: a violated property the
// emulation guarantees is a Divergence; a violated property a seeded-bug
// variant forfeits — the ABD read that skips its write-back phase, the
// counter that never propagates increments, the coordinator that echoes each
// proposer's own value — is an OracleFailure, the family's figure of merit.
// Shrinking gains a network axis: bug reproducers drop their loss schedule
// entry by entry before crashes, processes, operations and steps.

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// netSalt derives the network-order stream from the spec seed, independent
// of the policy (0x5eed), workload (0x3ead) and guidance (0x9ded) streams.
const netSalt = 0x0abd

// msgImplDef is one registered message-passing emulation variant, with its
// ground truth — the same contract as implDef, but construction needs the
// scenario's network and returns the replica servers to install as aux
// actors alongside the client-side implementation.
type msgImplDef struct {
	// name is the spec slug (drv3:msg/<object>/<name>).
	name string
	// lin guarantees every exhibited history is linearizable.
	lin bool
	// safe guarantees the object's secondary safety oracle.
	safe bool
	// make builds a fresh emulation for n processes on the network. The
	// second return re-derives the replica servers from the live emulation:
	// the run scratch calls it again after every Reset, because a counter's
	// cell set (hence its server list) can grow when n does.
	make func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server)
}

// msgDef is one registered emulated object: its sequential specification,
// its secondary safety oracle, and its emulation variants (first correct).
type msgDef struct {
	name       string
	obj        trace.Object
	safetyName string
	safety     func(obj trace.Object, w trace.Word, ops []trace.Operation) string
	impls      []msgImplDef
}

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
var msgRegistry = []msgDef{
	{
		name: "register", obj: trace.Register(), safetyName: OracleSC, safety: scViolation,
		impls: []msgImplDef{
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
		name: "counter", obj: trace.Counter(), safetyName: OracleSECSafety, safety: secViolation,
		impls: []msgImplDef{
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
		name: "consensus", obj: trace.Consensus(), safetyName: OracleSC, safety: scViolation,
		impls: []msgImplDef{
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

// MsgObjects returns the registered emulated-object names, in registry order.
func MsgObjects() []string {
	names := make([]string, 0, len(msgRegistry))
	for _, md := range msgRegistry {
		names = append(names, md.name)
	}
	return names
}

// MsgImplsOf returns the emulation slugs of the object, correct variant
// first, or nil for an object with no message-passing emulation.
func MsgImplsOf(object string) []string {
	for _, md := range msgRegistry {
		if md.name != object {
			continue
		}
		names := make([]string, 0, len(md.impls))
		for _, id := range md.impls {
			names = append(names, id.name)
		}
		return names
	}
	return nil
}

// msgImplByName resolves an object/impl slug pair in the message registry.
func msgImplByName(object, impl string) (msgDef, msgImplDef, error) {
	for _, md := range msgRegistry {
		if md.name != object {
			continue
		}
		for _, id := range md.impls {
			if id.name == impl {
				return md, id, nil
			}
		}
		return msgDef{}, msgImplDef{}, fmt.Errorf("explore: emulated object %q has no implementation %q", object, impl)
	}
	return msgDef{}, msgImplDef{}, fmt.Errorf("explore: unknown emulated object %q", object)
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

// executeMsg runs one message-passing scenario: the emulated object's clients
// under a seeded random workload, its replicas as aux actors, the network
// delivering under the spec's schedule, all wrapped in Aτ and monitored by
// V_O. The substrate comes from the runner's scratch: the network re-arms in
// place (Schedule.Reset), the cached emulation resets against it, and
// workload, service and Aτ recycle their buffers, so a reused scratch runs
// exactly as a new one.
func (r Runner) executeMsg(s Spec) (*Outcome, error) {
	md, id, err := msgImplByName(s.Object, s.Impl)
	if err != nil {
		return nil, err
	}
	sc := r.scratch
	nt, err := sc.network(s)
	if err != nil {
		return nil, err
	}
	impl, servers := sc.msgImpl(id, s)
	sc.wl.Reset(md.obj, s.N, s.OpsPerProc, s.MutBias, mix(s.Seed, wlSalt))
	sc.svc.Reset(s.N, impl, &sc.wl)
	sc.msgSvc = msgService{Service: &sc.svc, net: nt}
	tau := sc.timed(s.N, &sc.msgSvc)
	out, res := r.run(s, monitor.NewLin(md.obj, tau, adversary.ArrayAtomic), func(rt *sched.Runtime) (adversary.Service, []int) {
		// The delivery actor leads the aux list, so a biased policy's
		// cursor lands on it: biased schedules are delivery-eager, the
		// network-side counterpart of the language family's cursor bias.
		aux := []int{nt.Register(rt)}
		aux = append(aux, abd.Servers(rt, s.N, servers...)...)
		return tau, aux
	})
	out.Label = id.lin && id.safe
	r.runHistoryChecks(out, md.obj, md.safetyName, md.safety, id.lin, id.safe, len(s.Drops) > 0, res, tau)
	out.Signature = msgSignature(out, res)
	return out, nil
}

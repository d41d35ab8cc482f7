package abd

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// refServers installs replica actors that rescan on every call, the way
// Servers worked before its actors cached their pick: the gate asks each
// server in turn whether a request waits, and the step receives the oldest
// request of the first server in srvs order that has one. It is the
// reference Servers is compared against.
func refServers(rt *sched.Runtime, n int, srvs ...Server) []int {
	nt := srvs[0].network()
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		runnable := func() bool {
			for _, s := range srvs {
				if nt.InboxHas(i, func(m msgnet.Message) bool { return s.request(i, m) }) {
					return true
				}
			}
			return false
		}
		step := func() {
			for _, s := range srvs {
				if m, ok := nt.AuxRecv(i, func(m msgnet.Message) bool { return s.request(i, m) }); ok {
					s.handle(i, m)
					return
				}
			}
		}
		ids = append(ids, rt.AddAux(fmt.Sprintf("abd-server-%d", i), runnable, step))
	}
	return ids
}

// refPick is the request refServers' step would serve at replica id: the
// inbox index of the first server's oldest request, and that server.
func refPick(nt *msgnet.Net, id int, srvs []Server) (int, Server) {
	for _, s := range srvs {
		for i, m := range nt.Inbox(id) {
			if s.request(id, m) {
				return i, s
			}
		}
	}
	return -1, nil
}

// emulation builds one emulated object on nt, with the servers its replicas
// need.
type emulation struct {
	name  string
	obj   trace.Object
	build func(n int, nt *msgnet.Net) (sut.Impl, []Server)
}

var emulations = []emulation{
	{"register", trace.Register(), func(n int, nt *msgnet.Net) (sut.Impl, []Server) {
		r := NewRegister("x", n, nt, 0)
		return NewRegisterImpl(r), []Server{r}
	}},
	{"counter", trace.Counter(), func(n int, nt *msgnet.Net) (sut.Impl, []Server) {
		c := NewCounter("c", n, nt)
		srvs := make([]Server, 0, n)
		for _, cell := range c.Cells() {
			srvs = append(srvs, cell)
		}
		return NewCounterImpl(c), srvs
	}},
	{"consensus", trace.Consensus(), func(n int, nt *msgnet.Net) (sut.Impl, []Server) {
		c := NewConsensus("k", n, nt)
		return NewConsensusImpl(c), []Server{c}
	}},
}

// logPolicy wraps a policy and hashes every runnable set it is offered with
// the actor it chose.
type logPolicy struct {
	inner sched.Policy
	sum   hash.Hash64
}

func (p *logPolicy) Next(runnable []int, step int) int {
	id := p.inner.Next(runnable, step)
	fmt.Fprint(p.sum, runnable, id)
	return id
}

// runServed runs emulation e to workload exhaustion under schedule sch, with
// replicas installed by install, and summarises the run: its history, the
// network's counts, the step count and a hash of every scheduling choice
// with the runnable set it was made from.
func runServed(t *testing.T, e emulation, n int, seed int64, sch msgnet.Schedule, crash map[int][]int,
	install func(*sched.Runtime, int, ...Server) []int) string {
	t.Helper()
	pol := &logPolicy{inner: sched.Random(seed), sum: fnv.New64a()}
	rt := sched.New(n, pol)
	nt := new(msgnet.Net)
	if err := sch.Reset(nt, n); err != nil {
		t.Fatal(err)
	}
	nt.Register(rt)
	impl, srvs := e.build(n, nt)
	install(rt, n, srvs...)
	svc := sut.NewService(n, impl, sut.NewRandomWorkload(e.obj, n, 4, 0.5, seed))
	h := driveAuxServed(t, rt, nt, n, svc, crash)
	sent, delivered := nt.Stats()
	return fmt.Sprintf("%v\nsent=%d delivered=%d steps=%d schedule=%x", h, sent, delivered, rt.Steps(), pol.sum.Sum64())
}

// TestServersMatchReferenceLoop runs the register, the counter and consensus
// under every delivery order, with and without drops and crashes, once
// served by Servers and once by the rescanning reference: the histories,
// network counts, step counts and every runnable set the policy sees must be
// the same.
func TestServersMatchReferenceLoop(t *testing.T) {
	orders := []string{msgnet.OrderFIFO, msgnet.OrderLIFO, msgnet.OrderRandom, msgnet.OrderStarve}
	for _, e := range emulations {
		for _, order := range orders {
			for seed := int64(1); seed <= 4; seed++ {
				n := 3 + int(seed)%3
				faults := []struct {
					drops []int
					crash map[int][]int
				}{
					{nil, nil},
					{[]int{2, 5, 9, 14}, nil},
					{[]int{7}, map[int][]int{20 + 13*int(seed): {1}, 150: {0}}},
				}
				for k, f := range faults {
					sch := msgnet.Schedule{Order: order, Seed: seed * 101, Drops: f.drops}
					got := runServed(t, e, n, seed, sch, f.crash, Servers)
					want := runServed(t, e, n, seed, sch, f.crash, refServers)
					if got != want {
						t.Errorf("%s %s seed %d faults %d: Servers run\n%s\nreference run\n%s", e.name, order, seed, k, got, want)
					}
				}
			}
		}
	}
}

// TestReplicaPickMatchesRescan deploys a register, a counter and consensus on
// one network, served by one replica actor per process, and checks after
// every scheduler step and every interjected AuxRecv, Discard, Crash and
// Reset that each actor whose pick is keyed by its inbox's current stamp
// holds the pick a fresh scan makes. Servers builds its actors the same way.
func TestReplicaPickMatchesRescan(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		rt := sched.New(n, sched.Random(seed))
		nt := msgnet.New(n, msgnet.RandomOrder(seed))
		nt.Register(rt)
		reg := NewRegister("x", n, nt, 0)
		ctr := NewCounter("c", n, nt)
		cons := NewConsensus("k", n, nt)
		srvs := []Server{reg}
		for _, cell := range ctr.Cells() {
			srvs = append(srvs, cell)
		}
		srvs = append(srvs, cons)
		actors := make([]*replica, n)
		for i := range actors {
			actors[i] = &replica{nt: nt, id: i, srvs: srvs}
			rt.AddAux("replica", actors[i].runnable, actors[i].step)
		}
		for i := 0; i < n; i++ {
			ops := rand.New(rand.NewSource(seed*31 + int64(i)))
			rt.Spawn(i, func(p *sched.Proc) {
				for k := 0; k < 8; k++ {
					switch ops.Intn(5) {
					case 0:
						reg.Write(p, int64(k))
					case 1:
						reg.Read(p)
					case 2:
						ctr.Inc(p)
					case 3:
						ctr.Read(p)
					default:
						cons.Propose(p, int64(p.ID))
					}
				}
			})
		}

		check := func(what string) {
			t.Helper()
			for i, a := range actors {
				if a.seen != nt.Stamp(i) {
					continue
				}
				if at, srv := refPick(nt, i, srvs); a.at != at || (at >= 0 && a.srv != srv) {
					t.Fatalf("seed %d step %d after %s: replica %d caches index %d at the current stamp, a rescan picks %d", seed, rt.Steps(), what, i, a.at, at)
				}
			}
		}
		// The interjections can strand a client (a stolen ack, a crashed
		// coordinator), so they are rare enough for most runs to go on for
		// hundreds of steps.
		crashed := 0
		for rt.Steps() < 20_000 {
			id := rng.Intn(n)
			switch k := rng.Intn(1000); {
			case k < 5:
				nt.AuxRecv(id, nil)
				check("AuxRecv")
			case k < 10:
				nt.Discard(id, func(m msgnet.Message) bool { return m.Tag == tagQueryAck })
				check("Discard")
			case k < 12 && crashed < (n-1)/2:
				crashed++
				rt.Crash(id)
				nt.Crash(id)
				check("Crash")
			case k < 13:
				nt.Reset(n, msgnet.RandomOrder(seed+int64(rt.Steps())))
				check("Reset")
			}
			if !rt.Step() {
				break
			}
			check("a step")
		}
		steps += rt.Steps()
		rt.Stop()
	}
	if steps < 10_000 {
		t.Fatalf("the deployments took %d steps in all; too few to exercise the picks", steps)
	}
}

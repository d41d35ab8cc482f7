package abd

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// refServers installs replica actors that rescan on every re-read, the way
// Servers worked before its actors picked with one pass: the gate asks each
// server in turn whether a request waits, and the step serves the oldest
// request of the first server in srvs order that has one. Each actor watches
// its process's replica inbox, as Servers' do. It is the reference Servers is
// compared against.
func refServers(rt *sched.Runtime, n int, srvs ...Server) []int {
	nt := srvs[0].network()
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		runnable := func() bool {
			at, _ := refPick(nt, i, srvs)
			return at >= 0
		}
		step := func() {
			at, s := refPick(nt, i, srvs)
			s.handle(i, nt.TakeRequest(i, at))
		}
		ids = append(ids, nt.Serve(rt, i, runnable, step))
	}
	return ids
}

// refPick is the request refServers' step serves at replica id: the index of
// the first server's oldest request in the replica inbox, and that server.
func refPick(nt *msgnet.Net, id int, srvs []Server) (int, Server) {
	for _, s := range srvs {
		for i, m := range nt.Requests(id) {
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

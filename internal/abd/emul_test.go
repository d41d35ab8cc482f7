package abd

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// driveAuxServed runs n client processes to workload exhaustion over an
// aux-served emulation (replicas answer from aux actors, so finished clients
// simply return — the explorer's run shape). Crashes are injected between
// steps. Returns the exhibited history.
func driveAuxServed(t *testing.T, rt *sched.Runtime, nt *msgnet.Net, n int, svc *sut.Service, crash map[int][]int) trace.Word {
	t.Helper()
	for i := 0; i < n; i++ {
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					return
				}
				svc.Send(p, v)
				svc.Recv(p)
			}
		})
	}
	defer rt.Stop()
	for rt.Steps() < 2_000_000 {
		if ids, ok := crash[rt.Steps()]; ok {
			for _, id := range ids {
				rt.Crash(id)
				nt.Crash(id)
			}
		}
		if !rt.Step() {
			break
		}
	}
	return svc.History()
}

// runRegister builds an aux-served ABD register deployment and returns its
// history; mutate tweaks the register before the run (seeded bugs).
func runRegister(t *testing.T, n int, seed int64, ops int, crash map[int][]int, drops []int, mutate func(*Register)) trace.Word {
	t.Helper()
	return runRegisterCfg(t, n, seed, ops, 0.5, msgnet.RandomOrder(seed), crash, drops, mutate)
}

// runRegisterCfg is runRegister with the delivery order and mutate bias
// exposed, for the bug-variant hunts below.
func runRegisterCfg(t *testing.T, n int, seed int64, ops int, bias float64, order msgnet.Order, crash map[int][]int, drops []int, mutate func(*Register)) trace.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	nt := msgnet.New(n, order)
	nt.SetDrops(drops)
	nt.Register(rt)
	reg := NewRegister("x", n, nt, 0)
	if mutate != nil {
		mutate(reg)
	}
	Servers(rt, n, reg)
	svc := sut.NewService(n, NewRegisterImpl(reg), sut.NewRandomWorkload(trace.Register(), n, ops, bias, seed))
	return driveAuxServed(t, rt, nt, n, svc, crash)
}

func TestAuxServedABDLinearizable(t *testing.T) {
	// The aux-served deployment must preserve ABD's guarantee: linearizable
	// histories at every n, with clients parked on their quorums.
	for _, n := range []int{2, 3, 5} {
		for _, seed := range []int64{1, 2, 3, 4} {
			h := runRegister(t, n, seed, 4, nil, nil, nil)
			if len(trace.Complete(h)) == 0 {
				t.Fatalf("n=%d seed=%d: no operation completed", n, seed)
			}
			if !check.Linearizable(trace.Register(), h) {
				t.Errorf("n=%d seed=%d: aux-served ABD history not linearizable:\n%v", n, seed, h)
			}
		}
	}
}

func TestAuxServedABDSafeUnderCrashesAndDrops(t *testing.T) {
	// ABD's safety is unconditional: crashes and message loss can stall
	// quorums (operations stay pending, the run quiesces) but never produce
	// a non-linearizable history.
	for seed := int64(1); seed <= 8; seed++ {
		crash := map[int][]int{40 + int(seed)*13: {1}}
		drops := []int{0, 3, 5, 11, 20}
		h := runRegister(t, 3, seed, 4, crash, drops, nil)
		if !check.Linearizable(trace.Register(), h) {
			t.Errorf("seed=%d: crashed+lossy ABD history not linearizable:\n%v", seed, h)
		}
	}
}

func TestNoWriteBackViolatesAtomicity(t *testing.T) {
	// The seeded read bug demotes the register to regular: a write caught
	// mid-store is visible to one read and invisible to the next (new-old
	// inversion). The window needs the store broadcast to stay in flight
	// across two reads, so the hunt uses read-heavy workloads and the LIFO
	// order, which buries old store messages under fresh query traffic. The
	// whole stack is deterministic, so the hit is stable run over run.
	orders := []func(seed int64) msgnet.Order{
		func(int64) msgnet.Order { return msgnet.LIFOOrder() },
		func(seed int64) msgnet.Order { return msgnet.RandomOrder(seed) },
	}
	found := false
	for _, n := range []int{3, 5} {
		for _, order := range orders {
			for seed := int64(1); seed <= 100 && !found; seed++ {
				h := runRegisterCfg(t, n, seed, 4, 0.3, order(seed), nil, nil,
					func(r *Register) { r.DropReadWriteBack() })
				if !check.Linearizable(trace.Register(), h) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no hunted schedule exposed the missing write-back — bug variant ineffective")
	}
}

func TestLostIncCounterUnderCounts(t *testing.T) {
	// The lost-increment counter publishes incs only to the incrementing
	// process's own replica; reads that quorum-miss that replica under-count.
	found := false
	for seed := int64(1); seed <= 60 && !found; seed++ {
		h := runCounter(t, 3, seed, 4, true)
		if !check.Linearizable(trace.Counter(), h) {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed in 1..60 exposed the lost-increment bug — variant ineffective")
	}
}

// runCounter builds an aux-served emulated counter deployment.
func runCounter(t *testing.T, n int, seed int64, ops int, lost bool) trace.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	nt := msgnet.New(n, msgnet.RandomOrder(seed))
	nt.Register(rt)
	ctr := NewCounter("c", n, nt)
	if lost {
		ctr.DropIncStore()
	}
	srvs := make([]Server, 0, n)
	for _, cell := range ctr.Cells() {
		srvs = append(srvs, cell)
	}
	Servers(rt, n, srvs...)
	svc := sut.NewService(n, NewCounterImpl(ctr), sut.NewRandomWorkload(trace.Counter(), n, ops, 0.5, seed))
	return driveAuxServed(t, rt, nt, n, svc, nil)
}

func TestEmulatedCounterLinearizable(t *testing.T) {
	// Collecting atomic monotone single-writer cells is linearizable as a
	// counter — the message-passing analogue of the snapshot counter.
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		h := runCounter(t, 3, seed, 3, false)
		if len(trace.Complete(h)) == 0 {
			t.Fatalf("seed=%d: no operation completed", seed)
		}
		if !check.Linearizable(trace.Counter(), h) {
			t.Errorf("seed=%d: emulated counter history not linearizable:\n%v", seed, h)
		}
	}
}

// runConsensus builds an aux-served coordinator-consensus deployment.
func runConsensus(t *testing.T, n int, seed int64, ops int, echo bool, crash map[int][]int) trace.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	nt := msgnet.New(n, msgnet.RandomOrder(seed))
	nt.Register(rt)
	cons := NewConsensus("k", n, nt)
	if echo {
		cons.Echo()
	}
	Servers(rt, n, cons)
	svc := sut.NewService(n, NewConsensusImpl(cons), sut.NewRandomWorkload(trace.Consensus(), n, ops, 0.5, seed))
	return driveAuxServed(t, rt, nt, n, svc, crash)
}

func TestEmulatedConsensusLinearizable(t *testing.T) {
	// The coordinator decides the first proposal it serves; histories must
	// linearize against the sequential one-shot consensus, including runs
	// where the coordinator crashes and proposals stay pending.
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		h := runConsensus(t, 3, seed, 2, false, nil)
		if !check.Linearizable(trace.Consensus(), h) {
			t.Errorf("seed=%d: consensus history not linearizable:\n%v", seed, h)
		}
	}
	for _, seed := range []int64{6, 7} {
		h := runConsensus(t, 3, seed, 2, false, map[int][]int{25: {0}})
		if !check.Linearizable(trace.Consensus(), h) {
			t.Errorf("seed=%d: crashed-coordinator history not linearizable:\n%v", seed, h)
		}
	}
}

func TestEchoConsensusDisagrees(t *testing.T) {
	// The echo bug acknowledges each proposer with its own value; once two
	// proposals with distinct values complete, no sequential order explains
	// the history.
	found := false
	for seed := int64(1); seed <= 40 && !found; seed++ {
		h := runConsensus(t, 3, seed, 2, true, nil)
		if !check.Linearizable(trace.Consensus(), h) {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed in 1..40 exposed the echo bug — variant ineffective")
	}
}

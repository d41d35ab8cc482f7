package abd

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
)

func TestABDRegisterLinearizable(t *testing.T) {
	// The deterministic delivery orders: FIFO looks synchronous, LIFO keeps
	// broadcasts mid-flight under fresh traffic. TestAuxServedABDLinearizable
	// covers the random order.
	for _, order := range []func() msgnet.Order{msgnet.FIFOOrder, msgnet.LIFOOrder} {
		name := fmt.Sprintf("%T", order())
		for _, n := range []int{2, 3, 5} {
			for _, seed := range []int64{1, 2, 3} {
				h := runRegisterCfg(t, n, seed, 4, 0.5, order(), nil, nil, nil)
				if len(trace.Complete(h)) == 0 {
					t.Fatalf("%s n=%d seed=%d: no operation completed", name, n, seed)
				}
				if !check.Linearizable(trace.Register(), h) {
					t.Errorf("%s n=%d seed=%d: ABD history not linearizable:\n%v", name, n, seed, h)
				}
			}
		}
	}
}

func TestABDSurvivesMinorityCrash(t *testing.T) {
	// Crash ⌊(n-1)/2⌋ processes early; the survivors' operations must keep
	// completing and the overall history must stay linearizable.
	n := 5
	crash := map[int][]int{300: {3}, 600: {4}}
	h := runRegister(t, n, 11, 6, crash, nil, nil)
	if !check.Linearizable(trace.Register(), h) {
		t.Errorf("history with crashed minority not linearizable:\n%v", h)
	}
	// Survivors completed their whole workload: 3 procs × 6 ops.
	perProc := completedPerProc(h)
	for p := 0; p < 3; p++ {
		if perProc[p] != 6 {
			t.Errorf("survivor %d completed %d ops, want 6 — ABD must be wait-free for survivors", p, perProc[p])
		}
	}
}

func TestABDUnderStarvation(t *testing.T) {
	// Starving one process's deliveries must not break atomicity or the
	// other processes' progress.
	h := runRegisterCfg(t, 3, 7, 4, 0.5, msgnet.StarveOrder(2, msgnet.RandomOrder(7)), nil, nil, nil)
	if !check.Linearizable(trace.Register(), h) {
		t.Errorf("starved ABD history not linearizable:\n%v", h)
	}
	perProc := completedPerProc(h)
	for p := 0; p < 2; p++ {
		if perProc[p] != 4 {
			t.Errorf("process %d completed %d ops under starvation of 2, want 4", p, perProc[p])
		}
	}
}

// completedPerProc counts each process's completed operations in h.
func completedPerProc(h trace.Word) map[int]int {
	perProc := map[int]int{}
	for _, op := range trace.Complete(h) {
		perProc[op.ID.Proc]++
	}
	return perProc
}

func TestTwoRegistersMultiplex(t *testing.T) {
	// Distinct register names share one network, and one aux server per
	// process, without crosstalk.
	n := 3
	rt := sched.New(n, sched.Random(13))
	defer rt.Stop()
	nt := msgnet.New(n, msgnet.RandomOrder(13))
	nt.Register(rt)
	rx := NewRegister("x", n, nt, 0)
	ry := NewRegister("y", n, nt, 0)
	Servers(rt, n, rx, ry)

	var gotX, gotY int64
	rt.Spawn(0, func(p *sched.Proc) {
		rx.Write(p, 1)
		ry.Write(p, 2)
	})
	rt.Spawn(1, func(p *sched.Proc) {
		for rx.Read(p) != 1 {
		}
		gotX = rx.Read(p)
		gotY = ry.Read(p)
	})
	rt.Spawn(2, func(*sched.Proc) {})
	for rt.Steps() < 2_000_000 && rt.Step() {
	}
	if gotX != 1 || gotY != 2 {
		t.Errorf("multiplexed reads got x=%d y=%d, want 1/2", gotX, gotY)
	}
}

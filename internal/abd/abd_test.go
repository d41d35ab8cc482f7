package abd

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// runABD drives n processes through a sut.Service wrapping the ABD register
// and returns the exhibited history. Crashes (step → process IDs) are
// injected between scheduler steps, mirroring the monitor runner. The run
// stops once every live process finished its workload (server loops never
// quiesce on their own).
func runABD(t *testing.T, n int, seed int64, opsPerProc int, crash map[int][]int) trace.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	nt := msgnet.New(n, msgnet.RandomOrder(seed))
	nt.Register(rt)
	reg := NewRegister("x", n, nt, 0)
	svc := sut.NewService(n, NewRegisterImpl(reg), sut.NewRandomWorkload(trace.Register(), n, opsPerProc, 0.5, seed))

	done := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					done[i] = true
					// Keep serving the replica so others' quorums stay live.
					for {
						if !reg.Serve(p) {
							p.Pause()
						}
					}
				}
				svc.Send(p, v)
				svc.Recv(p)
			}
		})
	}
	defer rt.Stop()
	allDone := func() bool {
		for i, d := range done {
			if !d && !rt.Crashed(i) {
				return false
			}
		}
		return true
	}
	for rt.Steps() < 2_000_000 && !allDone() {
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

func TestABDRegisterLinearizable(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, seed := range []int64{1, 2, 3} {
			h := runABD(t, n, seed, 4, nil)
			if len(trace.Complete(h)) == 0 {
				t.Fatalf("n=%d seed=%d: no operation completed", n, seed)
			}
			if !check.Linearizable(trace.Register(), h) {
				t.Errorf("n=%d seed=%d: ABD history not linearizable:\n%v", n, seed, h)
			}
		}
	}
}

func TestABDSurvivesMinorityCrash(t *testing.T) {
	// Crash ⌊(n-1)/2⌋ processes early; the survivors' operations must keep
	// completing and the overall history must stay linearizable.
	n := 5
	crash := map[int][]int{300: {3}, 600: {4}}
	h := runABD(t, n, 11, 6, crash)
	if !check.Linearizable(trace.Register(), h) {
		t.Errorf("history with crashed minority not linearizable:\n%v", h)
	}
	// Survivors completed their whole workload: 3 procs × 6 ops.
	complete := trace.Complete(h)
	perProc := map[int]int{}
	for _, op := range complete {
		perProc[op.ID.Proc]++
	}
	for p := 0; p < 3; p++ {
		if perProc[p] != 6 {
			t.Errorf("survivor %d completed %d ops, want 6 — ABD must be wait-free for survivors", p, perProc[p])
		}
	}
}

func TestABDUnderStarvation(t *testing.T) {
	// Starving one process's deliveries must not break atomicity or the
	// other processes' progress.
	n := 3
	rt := sched.New(n, sched.Random(7))
	nt := msgnet.New(n, msgnet.StarveOrder(2, msgnet.RandomOrder(7)))
	nt.Register(rt)
	reg := NewRegister("x", n, nt, 0)
	svc := sut.NewService(n, NewRegisterImpl(reg), sut.NewRandomWorkload(trace.Register(), n, 4, 0.5, 7))
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					done[i] = true
					for {
						if !reg.Serve(p) {
							p.Pause()
						}
					}
				}
				svc.Send(p, v)
				svc.Recv(p)
			}
		})
	}
	defer rt.Stop()
	for rt.Steps() < 2_000_000 && !(done[0] && done[1] && done[2]) {
		if !rt.Step() {
			break
		}
	}
	h := svc.History()
	if !check.Linearizable(trace.Register(), h) {
		t.Errorf("starved ABD history not linearizable:\n%v", h)
	}
	perProc := map[int]int{}
	for _, op := range trace.Complete(h) {
		perProc[op.ID.Proc]++
	}
	for p := 0; p < 2; p++ {
		if perProc[p] != 4 {
			t.Errorf("process %d completed %d ops under starvation of 2, want 4", p, perProc[p])
		}
	}
}

func TestTwoRegistersMultiplex(t *testing.T) {
	// Distinct register names share one network without crosstalk.
	n := 3
	rt := sched.New(n, sched.Random(13))
	nt := msgnet.New(n, msgnet.RandomOrder(13))
	nt.Register(rt)
	rx := NewRegister("x", n, nt, 0)
	ry := NewRegister("y", n, nt, 0)

	var gotX, gotY int64
	rt.Spawn(0, func(p *sched.Proc) {
		rx.Write(p, 1)
		ry.Write(p, 2)
		for {
			if !rx.Serve(p) && !ry.Serve(p) {
				p.Pause()
			}
		}
	})
	rt.Spawn(1, func(p *sched.Proc) {
		for rx.Read(p) != 1 {
		}
		gotX = rx.Read(p)
		gotY = ry.Read(p)
		for {
			if !rx.Serve(p) && !ry.Serve(p) {
				p.Pause()
			}
		}
	})
	rt.Spawn(2, func(p *sched.Proc) {
		for {
			if !rx.Serve(p) && !ry.Serve(p) {
				p.Pause()
			}
		}
	})
	defer rt.Stop()
	for rt.Steps() < 2_000_000 && (gotX != 1 || gotY != 2) {
		if !rt.Step() {
			break
		}
	}
	if gotX != 1 || gotY != 2 {
		t.Errorf("multiplexed reads got x=%d y=%d, want 1/2", gotX, gotY)
	}
}

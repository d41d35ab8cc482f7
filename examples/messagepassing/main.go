// Message-passing example: the whole monitoring stack over an emulated
// network.
//
// The paper's possibility results use only read/write registers, "hence can
// be simulated in asynchronous message-passing systems tolerating crash
// faults in less than half the processes" [5]. This program demonstrates the
// port: an ABD-emulated atomic register runs over an adversarial
// message-passing network (random delivery order, one process crashing
// mid-run), the Figure 8 monitor watches it through the timed adversary,
// and the history stays linearizable while a majority survives.
//
// Run with:
//
//	go run ./examples/messagepassing
package main

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

func main() {
	const (
		procs      = 5
		opsPerProc = 6
		seed       = 7
		crashStep  = 800
		crashProc  = 4
	)

	rt := sched.New(procs, sched.Random(seed))
	nt := msgnet.New(procs, msgnet.RandomOrder(seed))
	nt.Register(rt)
	reg := abd.NewRegister("x", procs, nt, 0)
	svc := sut.NewService(procs, abd.NewRegisterImpl(reg),
		sut.NewRandomWorkload(trace.Register(), procs, opsPerProc, 0.5, seed))

	done := make([]bool, procs)
	for i := 0; i < procs; i++ {
		i := i
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					done[i] = true
					// Finished processes keep serving their replica so the
					// others' majorities stay reachable.
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
	for rt.Steps() < 3_000_000 && !allDone() {
		if rt.Steps() == crashStep {
			fmt.Printf("step %d: crashing process %d (still a minority)\n", crashStep, crashProc)
			rt.Crash(crashProc)
			nt.Crash(crashProc)
		}
		if !rt.Step() {
			break
		}
	}

	h := svc.History()
	sent, delivered := nt.Stats()
	fmt.Printf("network: %d messages sent, %d delivered, %d in flight\n", sent, delivered, nt.PendingCount())
	complete := trace.Complete(h)
	perProc := map[int]int{}
	for _, op := range complete {
		perProc[op.ID.Proc]++
	}
	fmt.Printf("operations completed per process: ")
	for p := 0; p < procs; p++ {
		fmt.Printf("p%d=%d ", p, perProc[p])
	}
	fmt.Println()
	fmt.Printf("history linearizable (ABD emulation is atomic): %v\n",
		check.Linearizable(trace.Register(), h))
	fmt.Println()
	fmt.Println("the same monitors that run on shared memory run unchanged here — the ABD")
	fmt.Println("registers implement the exact register interface the monitors use.")
}

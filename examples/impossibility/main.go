// Impossibility example: the Lemma 5.1 indistinguishability construction,
// live.
//
// The program builds the two executions of Lemma 5.1 — E, where each round's
// write completes just before the read, and F, where the same events happen
// in the opposite order — and runs two monitors on both: an order-free
// monitor, and one that uses wait-free consensus to agree on a global
// operation order. Both observe byte-identical streams in E and F, yet
// x(E) is linearizable and x(F) is not: no monitor, whatever its primitive
// power, can weakly decide LIN_REG against a fully asynchronous adversary.
//
// Run with:
//
//	go run ./examples/impossibility
package main

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sketch"
)

func main() {
	l := experiment.Lemma51{Rounds: 3}
	monitors := []monitor.Monitor{
		monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAtomic),
		monitor.NewConsensusOrder(trace.Register(), adversary.ArrayAtomic),
	}

	wE, wF := l.Words()
	fmt.Println("Lemma 5.1: two executions no monitor can tell apart")
	fmt.Println()
	fmt.Println("x(E) — every round: write(r) completes, then read returns r (linearizable):")
	fmt.Print(sketch.RenderTimeline(wE))
	fmt.Println()
	fmt.Println("x(F) — the same rounds with send/receive pairs swapped (read r before write(r)):")
	fmt.Print(sketch.RenderTimeline(wF))
	fmt.Println()

	for _, m := range monitors {
		r, err := l.Run(m)
		if err != nil {
			fmt.Printf("%s: construction error: %v\n", m.Name(), err)
			continue
		}
		fmt.Printf("monitor %s:\n", m.Name())
		fmt.Printf("  x(E) in LIN_REG: %v   x(F) in LIN_REG: %v\n", r.ELinOK, r.FLinOK)
		fmt.Printf("  executions indistinguishable to every process: %v\n", r.Indistinguishable)
		for p := 0; p < 2; p++ {
			fmt.Printf("  p%d verdicts in E: %v\n", p, r.ResE.Verdicts[p])
			fmt.Printf("  p%d verdicts in F: %v\n", p, r.ResF.Verdicts[p])
		}
		fmt.Println()
	}
	fmt.Println("the verdict streams coincide on a good and a bad execution — soundness and")
	fmt.Println("completeness cannot both hold, which is Table 1's ✗ for LIN_REG under SD and WD.")
}

package abd

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// TestAuxServedCounterInboxesStayBounded runs a long aux-served counter
// workload and checks after every step that no inbox holds more than 4·n²
// messages. Every rpc stops reading at a quorum, so each round leaves late
// acks behind; unless rpc discards the dead ones they pile up for the whole
// run (hundreds here), and every later gate and receive rescans them.
func TestAuxServedCounterInboxesStayBounded(t *testing.T) {
	const n, ops = 3, 40
	for _, seed := range []int64{1, 2, 3} {
		rt := sched.New(n, sched.Random(seed))
		nt := msgnet.New(n, msgnet.RandomOrder(seed))
		nt.Register(rt)
		ctr := NewCounter("c", n, nt)
		srvs := make([]Server, 0, n)
		for _, cell := range ctr.Cells() {
			srvs = append(srvs, cell)
		}
		Servers(rt, n, srvs...)
		svc := sut.NewService(n, NewCounterImpl(ctr), sut.NewRandomWorkload(trace.Counter(), n, ops, 0.5, seed))
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
		peak := 0
		for rt.Step() {
			for id := 0; id < n; id++ {
				size := 0
				for _, tag := range []string{tagQueryReq, tagQueryAck, tagStoreReq, tagStoreAck} {
					size += nt.Waiting(id, tag)
				}
				peak = max(peak, size)
			}
		}
		rt.Stop()
		if done := len(trace.Complete(svc.History())); done != n*ops {
			t.Fatalf("seed %d: %d of %d operations completed", seed, done, n*ops)
		}
		if peak > 4*n*n {
			t.Errorf("seed %d: an inbox reached %d messages, bound 4·n² = %d", seed, peak, 4*n*n)
		}
	}
}

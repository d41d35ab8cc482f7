package msgnet

import (
	"os"
	"strings"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// TestMain runs every test of the package under the maintained ≡ polled
// differential: each step's maintained runnable set must equal a full
// re-poll of every gate.
func TestMain(m *testing.M) {
	sched.VerifyRunnable(true)
	os.Exit(m.Run())
}

// echoDeployment builds n echo clients and servers: each client sends msgs
// requests to its successor's replica inbox and waits for each ack, counting
// its completed rounds in rounds. breakWake, when non-nil, runs after the
// actors are registered and before the first step.
func echoDeployment(n, msgs int, breakWake func(nt *Net)) (rt *sched.Runtime, rounds []int) {
	rounds = make([]int, n)
	rt = sched.New(n, sched.Random(11))
	nt := New(n, RandomOrder(7))
	nt.Register(rt)
	for i := 0; i < n; i++ {
		nt.Serve(rt, i, func() bool {
			return len(nt.Requests(i)) > 0
		}, func() {
			m := nt.TakeRequest(i, 0)
			nt.AuxSend(i, Message{To: m.From, Tag: "ack", Seq: m.Seq})
		})
	}
	for id := 0; id < n; id++ {
		rt.Spawn(id, func(p *sched.Proc) {
			for k := 0; k < msgs; k++ {
				nt.Send(p, Message{To: (id + 1) % n, Tag: "req", Seq: k})
				m := nt.RecvAwait(p, func(m Message) bool { return m.Tag == "ack" && m.Seq == k })
				rounds[id] = m.Seq + 1
			}
		})
	}
	if breakWake != nil {
		breakWake(nt)
	}
	return rt, rounds
}

// mustMissWake runs f, which removes one of the network's wakes, and fails
// unless the differential reports a step that changed a gate's input without
// waking its actor.
func mustMissWake(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "without waking") {
			t.Fatalf("the differential missed the removed wake: recovered %v", r)
		}
	}()
	f()
}

// TestRemovedWakesAreCaught is the differential's teeth: with any one of the
// network's three wakes removed — the delivery actor's on a send, a server's
// on a delivered request, a waiting client's on a delivered reply — some step
// leaves the maintained runnable set stale, and the check says so.
func TestRemovedWakesAreCaught(t *testing.T) {
	t.Run("delivery", func(t *testing.T) {
		rt, _ := echoDeployment(4, 6, func(nt *Net) { nt.delivery = -1 })
		defer rt.Stop()
		mustMissWake(t, func() { pump(rt, 10_000) })
	})
	t.Run("server", func(t *testing.T) {
		rt, _ := echoDeployment(4, 6, func(nt *Net) {
			for i := range nt.servers {
				nt.servers[i] = -1
			}
		})
		defer rt.Stop()
		mustMissWake(t, func() { pump(rt, 10_000) })
	})
	t.Run("client", func(t *testing.T) {
		rt := sched.New(2, sched.RoundRobin())
		defer rt.Stop()
		nt := New(2, FIFOOrder())
		nt.Register(rt)
		rt.Spawn(0, func(p *sched.Proc) { nt.RecvAwait(p, nil) })
		rt.Spawn(1, func(p *sched.Proc) {
			p.Pause()
			// A delivery into process 0's client inbox, minus its wake.
			nt.inboxes[0] = append(nt.inboxes[0], Message{From: 1, Tag: "t"})
			p.Pause()
		})
		mustMissWake(t, func() { pump(rt, 100) })
	})
}

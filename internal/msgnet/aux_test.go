package msgnet

import (
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// Dropped returns how many sends the loss schedule discarded: every counted
// send is delivered, still pending or dropped.
func (nt *Net) Dropped() int { return nt.sent - nt.deliv - len(nt.pending) }

// TestDropScheduleIsDeterministic checks the loss schedule drops exactly the
// named send indices, identically on every run.
func TestDropScheduleIsDeterministic(t *testing.T) {
	deliveredCount := func() int {
		rt := sched.New(2, sched.RoundRobin())
		defer rt.Stop()
		nt := New(2, FIFOOrder())
		nt.SetDrops([]int{1, 3, 99})
		nt.Register(rt)
		rt.Spawn(0, func(p *sched.Proc) {
			for i := 0; i < 5; i++ {
				nt.Send(p, Message{To: 1, Tag: "t", Seq: i})
			}
		})
		rt.Spawn(1, func(p *sched.Proc) { p.Pause() })
		pump(rt, 100)
		sent, deliv := nt.Stats()
		if sent != 5 {
			t.Fatalf("sent %d messages, want 5", sent)
		}
		if nt.Dropped() != 2 {
			t.Fatalf("dropped %d messages, want 2 (index 99 never happens)", nt.Dropped())
		}
		return deliv
	}
	first := deliveredCount()
	if first != 3 {
		t.Fatalf("delivered %d messages, want 3", first)
	}
	if again := deliveredCount(); again != first {
		t.Fatalf("drop schedule not deterministic: %d then %d deliveries", first, again)
	}
}

// TestAuxSendSuppressedAfterCrash checks aux-side sends by crashed processes
// vanish: aux actors have no scheduler gate, so the network enforces it.
func TestAuxSendSuppressedAfterCrash(t *testing.T) {
	nt := New(2, FIFOOrder())
	nt.AuxSend(0, Message{To: 1, Tag: "a"})
	nt.Crash(0)
	nt.AuxSend(0, Message{To: 1, Tag: "b"})
	if nt.PendingCount() != 1 {
		t.Fatalf("pending %d messages, want only the pre-crash one", nt.PendingCount())
	}
	sent, _ := nt.Stats()
	if sent != 1 {
		t.Fatalf("sent %d, want 1: crashed sends must not count", sent)
	}
}

// TestAuxRecvAndInboxHas checks the no-step pair that reads a client inbox:
// InboxHas is a pure read, AuxRecv dequeues the oldest match.
func TestAuxRecvAndInboxHas(t *testing.T) {
	rt := sched.New(1, sched.RoundRobin())
	defer rt.Stop()
	nt := New(1, FIFOOrder())
	nt.Register(rt)
	nt.AuxSend(0, Message{To: 0, Tag: "x", Seq: 1})
	nt.AuxSend(0, Message{To: 0, Tag: "y", Seq: 2})
	nt.AuxSend(0, Message{To: 0, Tag: "x", Seq: 3})
	pump(rt, 50)
	isX := func(m Message) bool { return m.Tag == "x" }
	if !nt.InboxHas(0, isX) {
		t.Fatal("InboxHas misses a waiting match")
	}
	m, ok := nt.AuxRecv(0, isX)
	if !ok || m.Seq != 1 {
		t.Fatalf("AuxRecv got %v %v, want the oldest x (seq 1)", m, ok)
	}
	m, ok = nt.AuxRecv(0, isX)
	if !ok || m.Seq != 3 {
		t.Fatalf("AuxRecv got %v %v, want seq 3", m, ok)
	}
	if nt.InboxHas(0, isX) {
		t.Fatal("InboxHas sees an x after both were consumed")
	}
	if !nt.InboxHas(0, nil) {
		t.Fatal("nil filter misses the remaining y")
	}
}

// TestAuxEchoServersDeliverEverything drives n client processes against n
// echo aux servers over a seeded random order — the shape of the explorer's
// emulation runs, and the -race tier's concurrent-delivery coverage: the
// scheduler hands control between client coroutines and inline aux steps, so
// a missing handoff barrier would trip the race detector here. Each server
// watches its process's replica inbox, which the clients' requests reach.
func TestAuxEchoServersDeliverEverything(t *testing.T) {
	const n, msgs = 4, 6
	rt, rounds := echoDeployment(n, msgs, nil)
	defer rt.Stop()
	pump(rt, 10_000)
	for id, g := range rounds {
		if g != msgs {
			t.Errorf("process %d completed %d echo rounds, want %d", id, g, msgs)
		}
	}
}

// TestDiscardKeepsOrderAndCostsNoStep checks Discard removes exactly the
// matching messages, keeps the survivors in arrival order, and consumes no
// scheduler step.
func TestDiscardKeepsOrderAndCostsNoStep(t *testing.T) {
	rt := sched.New(1, sched.RoundRobin())
	defer rt.Stop()
	nt := New(1, FIFOOrder())
	nt.Register(rt)
	for i := 1; i <= 6; i++ {
		nt.AuxSend(0, Message{To: 0, Tag: "t", Seq: i})
	}
	pump(rt, 100)
	steps := rt.Steps()
	if got := nt.Discard(0, func(m Message) bool { return m.Seq%2 == 0 }); got != 3 {
		t.Fatalf("Discard removed %d messages, want 3", got)
	}
	if rt.Steps() != steps {
		t.Fatal("Discard consumed a scheduler step")
	}
	for _, want := range []int{1, 3, 5} {
		m, ok := nt.AuxRecv(0, nil)
		if !ok || m.Seq != want {
			t.Fatalf("after Discard got %v %v, want seq %d", m, ok, want)
		}
	}
	if nt.InboxHas(0, nil) || len(nt.Inbox(0)) != 0 {
		t.Fatal("inbox not empty after receiving the survivors")
	}
}

package msgnet

import (
	"fmt"
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

// TestAuxRecvAndInboxHas checks the no-step receive pair used by replica aux
// actors: InboxHas is a pure read, AuxRecv dequeues the oldest match.
func TestAuxRecvAndInboxHas(t *testing.T) {
	rt := sched.New(1, sched.RoundRobin())
	defer rt.Stop()
	nt := New(1, FIFOOrder())
	nt.Register(rt)
	rt.Spawn(0, func(p *sched.Proc) {
		nt.Send(p, Message{To: 0, Tag: "x", Seq: 1})
		nt.Send(p, Message{To: 0, Tag: "y", Seq: 2})
		nt.Send(p, Message{To: 0, Tag: "x", Seq: 3})
	})
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
// a missing handoff barrier would trip the race detector here.
func TestAuxEchoServersDeliverEverything(t *testing.T) {
	const n = 4
	const msgs = 6
	rt := sched.New(n, sched.Random(11))
	defer rt.Stop()
	nt := New(n, RandomOrder(7))
	nt.Register(rt)
	for i := 0; i < n; i++ {
		i := i
		isReq := func(m Message) bool { return m.Tag == "req" }
		rt.AddAux(fmt.Sprintf("echo-%d", i), func() bool {
			return nt.InboxHas(i, isReq)
		}, func() {
			m, ok := nt.AuxRecv(i, isReq)
			if !ok {
				t.Error("echo server stepped with no request")
				return
			}
			nt.AuxSend(i, Message{To: m.From, Tag: "ack", Seq: m.Seq})
		})
	}
	got := make([]int, n)
	for id := 0; id < n; id++ {
		id := id
		rt.Spawn(id, func(p *sched.Proc) {
			for k := 0; k < msgs; k++ {
				nt.Send(p, Message{To: (id + 1) % n, Tag: "req", Seq: k})
				m := nt.RecvAwait(p, func(m Message) bool { return m.Tag == "ack" && m.Seq == k })
				got[id] = m.Seq + 1
			}
		})
	}
	pump(rt, 10_000)
	for id, g := range got {
		if g != msgs {
			t.Errorf("process %d completed %d echo rounds, want %d", id, g, msgs)
		}
	}
}

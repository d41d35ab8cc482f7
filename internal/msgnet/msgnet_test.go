package msgnet

import (
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// pump runs the runtime until quiescence or the step bound.
func pump(rt *sched.Runtime, max int) {
	for rt.Steps() < max {
		if !rt.Step() {
			break
		}
	}
}

func TestFIFODeliversInOrder(t *testing.T) {
	rt := sched.New(2, sched.RoundRobin())
	nt := New(2, FIFOOrder())
	nt.Register(rt)

	rt.Spawn(0, func(p *sched.Proc) {
		for i := 1; i <= 5; i++ {
			nt.Send(p, Message{To: 1, Tag: "t", Seq: i})
		}
	})
	defer rt.Stop()
	pump(rt, 10_000)
	got := nt.Requests(1)
	if len(got) != 5 {
		t.Fatalf("delivered %d messages, want 5", len(got))
	}
	for i, m := range got {
		if m.Seq != i+1 {
			t.Errorf("delivery %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}

func TestRandomOrderDeliversEverything(t *testing.T) {
	rt := sched.New(2, sched.Random(5))
	nt := New(2, RandomOrder(5))
	nt.Register(rt)

	const total = 20
	seen := map[int]bool{}
	rt.Spawn(0, func(p *sched.Proc) {
		for i := 0; i < total; i++ {
			nt.Send(p, Message{To: 1, Tag: "t", Seq: i})
		}
	})
	defer rt.Stop()
	pump(rt, 100_000)
	for _, m := range nt.Requests(1) {
		if seen[m.Seq] {
			t.Errorf("duplicate delivery of seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), total)
	}
	sent, deliv := nt.Stats()
	if sent != total || deliv != total {
		t.Errorf("stats sent=%d delivered=%d, want %d/%d", sent, deliv, total, total)
	}
}

func TestRecvFilter(t *testing.T) {
	rt := sched.New(2, sched.RoundRobin())
	nt := New(2, FIFOOrder())
	nt.Register(rt)

	var tagged Message
	nt.AuxSend(0, Message{To: 1, Tag: "noise", Seq: 1})
	nt.AuxSend(0, Message{To: 1, Tag: "want", Seq: 2})
	rt.Spawn(1, func(p *sched.Proc) {
		tagged = nt.RecvAwait(p, func(m Message) bool { return m.Tag == "want" })
	})
	defer rt.Stop()
	pump(rt, 10_000)
	if tagged.Seq != 2 {
		t.Errorf("filtered recv got %v", tagged)
	}
}

func TestCrashDropsMessages(t *testing.T) {
	rt := sched.New(2, sched.RoundRobin())
	nt := New(2, FIFOOrder())
	nt.Register(rt)

	rt.Spawn(0, func(p *sched.Proc) {
		for i := 0; i < 10; i++ {
			nt.Send(p, Message{To: 1, Tag: "t", Seq: i})
		}
	})
	rt.Spawn(1, func(p *sched.Proc) {
		for {
			p.Pause()
		}
	})
	nt.Crash(1)
	rt.Crash(1)
	defer rt.Stop()
	pump(rt, 10_000)
	if nt.PendingCount() != 0 {
		t.Errorf("%d messages still pending; deliveries to crashed process should vanish", nt.PendingCount())
	}
	if len(nt.inboxes[1])+len(nt.requests[1]) != 0 {
		t.Errorf("crashed inboxes hold %d messages", len(nt.inboxes[1])+len(nt.requests[1]))
	}
}

func TestStarveOrderPrefersOthers(t *testing.T) {
	// With messages pending to both 1 and 2 and victim 1, deliveries to 2
	// happen first; victim messages arrive only once nothing else is left.
	nt := New(3, StarveOrder(1, FIFOOrder()))
	for _, m := range []Message{
		{To: 1, Seq: 1},
		{To: 2, Seq: 2},
		{To: 1, Seq: 3},
		{To: 2, Seq: 4},
	} {
		nt.enqueue(m, false)
	}
	nt.deliverStep()
	nt.deliverStep()
	if got := len(nt.inboxes[2]); got != 2 {
		t.Fatalf("after two deliveries process 2 has %d messages, want 2 (victim served first?)", got)
	}
	if len(nt.inboxes[1]) != 0 {
		t.Fatalf("victim received messages while others were pending")
	}
	nt.deliverStep()
	nt.deliverStep()
	if got := len(nt.inboxes[1]); got != 2 {
		t.Fatalf("victim ended with %d messages, want 2 — starvation must not become loss", got)
	}
	if nt.inboxes[2][0].Seq != 2 || nt.inboxes[2][1].Seq != 4 {
		t.Errorf("process 2 deliveries out of order: %v", nt.inboxes[2])
	}
}

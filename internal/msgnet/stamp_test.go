package msgnet

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// TestStampsMatchRescan is the inbox stamp's invariant, over seeded random
// sequences of sends, deliveries, stepped RecvAwait, AuxRecv, Discard, Crash
// and Reset. After every operation:
//   - an inbox whose contents changed has a stamp it never had before;
//   - every parked RecvAwait gate whose cached answer is still keyed by its
//     inbox's current stamp holds the answer a fresh scan gives.
//
// The gates are then polled, as the scheduler does between steps, so the
// next operation starts from warm caches. Each parked process's filter stays
// fixed from park to grant, as RecvAwait requires.
func TestStampsMatchRescan(t *testing.T) {
	tags := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		nt := New(n, RandomOrder(seed))

		// Every process loops on RecvAwait under a filter drawn at park
		// time, so a step granted to process id completes one stepped
		// receive from id's inbox and parks again under a new filter; the
		// first grant only starts the body.
		pickFilter := func() func(Message) bool {
			switch rng.Intn(3) {
			case 0:
				return nil
			case 1:
				tag := tags[rng.Intn(len(tags))]
				return func(m Message) bool { return m.Tag == tag }
			default:
				parity := rng.Intn(2)
				return func(m Message) bool { return m.Seq%2 == parity }
			}
		}
		want := 0
		rt := sched.New(n, sched.PolicyFunc(func([]int, int) int { return want }))
		for id := 0; id < n; id++ {
			rt.Spawn(id, func(p *sched.Proc) {
				for {
					nt.RecvAwait(p, pickFilter())
				}
			})
		}
		for id := 0; id < n; id++ {
			want = id
			rt.Step()
		}

		seen := make([]map[uint64]bool, n)
		for i := range seen {
			seen[i] = map[uint64]bool{nt.Stamp(i): true}
		}
		before := make([][]Message, n)
		for op := 0; op < 400; op++ {
			for i := range before {
				before[i] = append(before[i][:0], nt.inboxes[i]...)
			}
			stamps := append([]uint64(nil), nt.stamps...)
			id := rng.Intn(n)
			switch k := rng.Intn(20); {
			case k < 8:
				nt.AuxSend(rng.Intn(n), Message{To: id, Tag: tags[rng.Intn(len(tags))], Seq: op})
			case k < 13:
				if nt.deliverable() {
					nt.deliverStep()
				}
			case k < 15:
				// A parked process is runnable exactly when its gate holds.
				if g := nt.gates[id]; nt.InboxHas(id, g.match) && !nt.crashed[id] {
					want = id
					rt.Step()
				}
			case k < 17:
				nt.AuxRecv(id, pickFilter())
			case k < 19:
				nt.Discard(id, pickFilter())
			case rng.Intn(4) == 0:
				nt.Reset(n, RandomOrder(seed+int64(op)))
			default:
				nt.Crash(id)
			}
			for i := 0; i < n; i++ {
				if st := nt.Stamp(i); !sameMessages(before[i], nt.inboxes[i]) && (st == stamps[i] || seen[i][st]) {
					t.Fatalf("seed %d op %d: inbox %d changed but its stamp %d is not new", seed, op, i, st)
				}
				seen[i][nt.Stamp(i)] = true
				g := nt.gates[i]
				if fresh := nt.InboxHas(i, g.match); g.seen == nt.Stamp(i) && g.has != fresh {
					t.Fatalf("seed %d op %d: process %d's gate caches %v at the current stamp, a rescan finds %v", seed, op, i, g.has, fresh)
				}
				g.open()
			}
		}
		rt.Stop()
	}
}

// sameMessages reports whether two inboxes hold the same messages in the
// same order.
func sameMessages(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDiscardKeepsOrderAndCostsNoStep checks Discard removes exactly the
// matching messages, keeps the survivors in arrival order, and consumes no
// scheduler step.
func TestDiscardKeepsOrderAndCostsNoStep(t *testing.T) {
	rt := sched.New(1, sched.RoundRobin())
	defer rt.Stop()
	nt := New(1, FIFOOrder())
	nt.Register(rt)
	rt.Spawn(0, func(p *sched.Proc) {
		for i := 1; i <= 6; i++ {
			nt.Send(p, Message{To: 0, Tag: "t", Seq: i})
		}
	})
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

package msgnet

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// recount counts the messages tagged tag in id's inbox the slow way.
func recount(nt *Net, id int, tag string) int {
	c := 0
	for _, m := range nt.inboxes[id] {
		if m.Tag == tag {
			c++
		}
	}
	return c
}

// TestWaitingMatchesRecount is the per-tag count's invariant: after every
// operation of seeded random sequences of sends, deliveries, stepped
// RecvAwait, AuxRecv, Discard, Crash and Reset, Waiting(id, tag) equals a
// recount of the inbox, for every process and every tag (one never sent
// included).
func TestWaitingMatchesRecount(t *testing.T) {
	tags := []string{"a", "b", "c", "never-sent"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		nt := New(n, RandomOrder(seed))

		// Every process loops on RecvAwait under the current filter, so a
		// step granted to process id completes one stepped receive from id's
		// inbox; the first grant only starts the body, which parks in
		// RecvAwait's gate.
		var filter func(Message) bool
		current := func(m Message) bool { return filter == nil || filter(m) }
		want := 0
		rt := sched.New(n, sched.PolicyFunc(func([]int, int) int { return want }))
		for id := 0; id < n; id++ {
			rt.Spawn(id, func(p *sched.Proc) {
				for {
					nt.RecvAwait(p, current)
				}
			})
		}
		for id := 0; id < n; id++ {
			want = id
			rt.Step()
		}

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
		for op := 0; op < 400; op++ {
			id := rng.Intn(n)
			switch k := rng.Intn(20); {
			case k < 8:
				nt.AuxSend(rng.Intn(n), Message{To: id, Tag: tags[rng.Intn(3)], Seq: op})
			case k < 13:
				if nt.deliverable() {
					nt.deliverStep()
				}
			case k < 15:
				// A parked process is runnable exactly when its gate holds.
				if filter, want = pickFilter(), id; nt.InboxHas(id, filter) {
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
				for _, tag := range tags {
					if got, want := nt.Waiting(i, tag), recount(nt, i, tag); got != want {
						t.Fatalf("seed %d op %d: Waiting(%d, %q) = %d, inbox holds %d", seed, op, i, tag, got, want)
					}
				}
			}
		}
		rt.Stop()
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
	if nt.InboxHas(0, nil) || nt.Waiting(0, "t") != 0 {
		t.Fatal("inbox not empty after receiving the survivors")
	}
}

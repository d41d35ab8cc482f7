package adversary

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// TestMain runs every test of the package under the maintained ≡ polled
// differential: each step's maintained runnable set must equal a full
// re-poll of every gate, the word cursor's included.
func TestMain(m *testing.M) {
	sched.VerifyRunnable(true)
	os.Exit(m.Run())
}

// cursorRun drives three processes through the bare loop against a cursor
// exhibiting a random counter word under a random policy, crashing process 2
// between steps at crashAt (never when negative). breakWake, when non-nil,
// runs once the cursor is registered.
func cursorRun(seed int64, crashAt int, breakWake func(a *A)) *A {
	const n = 3
	adv := NewA(n, NewScriptSource(randomCounterWord(rand.New(rand.NewSource(seed)), n, 8)))
	rt := sched.New(n, sched.Random(seed))
	defer rt.Stop()
	adv.Register(rt)
	if breakWake != nil {
		breakWake(adv)
	}
	for i := 0; i < n; i++ {
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := adv.NextInv(p.ID)
				if !ok {
					return
				}
				adv.Send(p, v)
				adv.Recv(p)
			}
		})
	}
	for rt.Steps() < 10_000 {
		if rt.Steps() == crashAt {
			rt.Crash(2)
			adv.Crash(2)
		}
		if !rt.Step() {
			break
		}
	}
	return adv
}

// TestCursorWakesUnderCrashes runs the cursor with a crash injected at every
// early step, checking the maintained runnable set at every step: a crash
// drops queued symbols, which moves the cursor's head, so it wakes the
// cursor.
func TestCursorWakesUnderCrashes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for crashAt := -1; crashAt < 40; crashAt++ {
			cursorRun(seed, crashAt, nil)
		}
	}
}

// TestRemovedCursorWakeIsCaught is the differential's teeth on the cursor:
// with the wakes of Send, Recv and Crash sent to a process instead of the
// cursor, a process parks at its gate without the cursor's test being
// re-read, and the check says so.
func TestRemovedCursorWakeIsCaught(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "without waking") {
			t.Fatalf("the differential missed the removed cursor wake: recovered %v", r)
		}
	}()
	cursorRun(1, -1, func(a *A) { a.cursor = 0 })
}

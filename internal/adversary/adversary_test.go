package adversary

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
)

// runPlainLoop drives n processes through the bare Figure-1 loop (no monitor
// logic) against the service, returning the responses each process received.
func runPlainLoop(t *testing.T, n int, svc Service, register func(*sched.Runtime) []int, policy func(cursor []int) sched.Policy, maxSteps int) [][]trace.Response {
	t.Helper()
	rt := sched.New(n, nil)
	cursors := register(rt)
	rt.SetPolicy(policy(cursors))
	got := make([][]trace.Response, n)
	for i := 0; i < n; i++ {
		i := i
		rt.Spawn(i, func(p *sched.Proc) {
			for {
				v, ok := svc.NextInv(p.ID)
				if !ok {
					return
				}
				svc.Send(p, v)
				got[i] = append(got[i], svc.Recv(p))
			}
		})
	}
	defer rt.Stop()
	rt.Run(maxSteps)
	return got
}

func TestClaim31AnyWordRealizable(t *testing.T) {
	// Claim 3.1: for every well-formed word there is an execution whose
	// input is exactly that word. The cursor construction with a prioritized
	// cursor realizes it.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		script := randomCounterWord(rng, 3, 8)
		adv := NewA(3, NewScriptSource(script))
		runPlainLoop(t, 3, adv,
			func(rt *sched.Runtime) []int { return []int{adv.Register(rt)} },
			func(cursor []int) sched.Policy { return sched.Prioritize(cursor[0], sched.RoundRobin()) },
			10_000)
		if !adv.History().Equal(script) {
			t.Fatalf("trial %d: history %v != script %v", trial, adv.History(), script)
		}
	}
}

func TestCursorRespectsWordOrderUnderRandomPolicies(t *testing.T) {
	// Whatever the schedule, the emitted history is exactly the script: the
	// adversary controls the real-time order of events.
	script := trace.NewB().
		Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
		Op(2, trace.OpRead, trace.Unit{}, trace.Int(1)).
		Op(0, trace.OpRead, trace.Unit{}, trace.Int(1)).
		Word()
	for seed := int64(0); seed < 20; seed++ {
		adv := NewA(3, NewScriptSource(script))
		runPlainLoop(t, 3, adv,
			func(rt *sched.Runtime) []int { return []int{adv.Register(rt)} },
			func(cursor []int) sched.Policy { return sched.Random(seed) },
			10_000)
		if !adv.History().Equal(script) {
			t.Fatalf("seed %d: history %v != script %v", seed, adv.History(), script)
		}
	}
}

func TestNextInvProjection(t *testing.T) {
	script := trace.NewB().
		Op(0, trace.OpWrite, trace.Int(1), trace.Unit{}).
		Op(1, trace.OpRead, trace.Unit{}, trace.Int(1)).
		Op(0, trace.OpWrite, trace.Int(2), trace.Unit{}).
		Word()
	adv := NewA(2, NewScriptSource(script))
	v1, ok := adv.NextInv(0)
	if !ok || !v1.Val.Equal(trace.Int(1)) {
		t.Fatalf("first inv of p0 = %v ok=%v", v1, ok)
	}
	v2, ok := adv.NextInv(0)
	if !ok || !v2.Val.Equal(trace.Int(2)) {
		t.Fatalf("second inv of p0 = %v ok=%v", v2, ok)
	}
	if _, ok := adv.NextInv(0); ok {
		t.Error("p0 should have no third invocation")
	}
	r, ok := adv.NextInv(1)
	if !ok || r.Op != trace.OpRead {
		t.Fatalf("p1 inv = %v ok=%v", r, ok)
	}
}

func TestPendingInvocationStalls(t *testing.T) {
	// A word ending in a pending invocation leaves that process parked at
	// the receive gate; the run stalls rather than fabricating a response.
	script := trace.NewB().Inv(0, trace.OpRead, trace.Unit{}).Word()
	adv := NewA(1, NewScriptSource(script))
	rt := sched.New(1, nil)
	cursor := adv.Register(rt)
	rt.SetPolicy(sched.Prioritize(cursor, sched.RoundRobin()))
	rt.Spawn(0, func(p *sched.Proc) {
		v, _ := adv.NextInv(p.ID)
		adv.Send(p, v)
		adv.Recv(p)
		t.Error("Recv returned without a response in the word")
	})
	defer rt.Stop()
	if steps := rt.Run(1000); steps >= 1000 {
		t.Error("expected stall")
	}
	if len(adv.History()) != 1 {
		t.Errorf("history = %v, want just the invocation", adv.History())
	}
}

func TestTimedViewsProperties(t *testing.T) {
	// Views from an atomic-snapshot Aτ: own invocation contained, per-process
	// monotone, pairwise comparable (Appendix B's comparability property).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		script := randomCounterWord(rng, 3, 10)
		inner := NewA(3, NewScriptSource(script))
		tau := NewTimed(3, inner, ArrayAtomic)
		seed := rng.Int63()
		got := runPlainLoop(t, 3, tau,
			func(rt *sched.Runtime) []int { return []int{inner.Register(rt)} },
			func(cursor []int) sched.Policy { return sched.Random(seed) },
			100_000)
		var all []trace.View
		for i, resps := range got {
			var prev *trace.View
			for k, r := range resps {
				if r.View == nil {
					t.Fatalf("response without view: %+v", r)
				}
				if r.ID != (trace.OpID{Proc: i, Idx: k}) {
					t.Fatalf("bad op id %v for proc %d op %d", r.ID, i, k)
				}
				if !r.View.Contains(r.ID) {
					t.Fatalf("view %v misses own invocation %v", r.View, r.ID)
				}
				if prev != nil && !prev.Leq(*r.View) {
					t.Fatalf("views of proc %d not monotone: %v then %v", i, prev, r.View)
				}
				prev = r.View
				all = append(all, *r.View)
			}
		}
		for a := range all {
			for b := range all {
				if !all[a].Comparable(all[b]) {
					t.Fatalf("incomparable atomic-snapshot views %v vs %v", all[a], all[b])
				}
			}
		}
	}
}

func TestTimedCountOp(t *testing.T) {
	script := trace.NewB().
		Op(0, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(1, trace.OpInc, trace.Unit{}, trace.Unit{}).
		Op(0, trace.OpRead, trace.Unit{}, trace.Int(2)).
		Word()
	inner := NewA(2, NewScriptSource(script))
	tau := NewTimed(2, inner, ArrayAtomic)
	got := runPlainLoop(t, 2, tau,
		func(rt *sched.Runtime) []int { return []int{inner.Register(rt)} },
		func(cursor []int) sched.Policy { return sched.Prioritize(cursor[0], sched.RoundRobin()) },
		10_000)
	last := got[0][len(got[0])-1]
	if n := tau.CountOp(*last.View, trace.OpInc); n != 2 {
		t.Errorf("CountOp(inc) = %d in %v, want 2", n, last.View)
	}
	if n := tau.CountOp(*last.View, trace.OpRead); n != 1 {
		t.Errorf("CountOp(read) = %d, want 1 (own read announced before send)", n)
	}
}

func TestViewOperations(t *testing.T) {
	v := trace.NewView([]int{2, 0, 1})
	u := trace.NewView([]int{1, 0, 1})
	w := trace.NewView([]int{0, 3, 0})
	if v.Total() != 3 || u.Total() != 2 {
		t.Errorf("totals: %d %d", v.Total(), u.Total())
	}
	if !u.Leq(v) || v.Leq(u) {
		t.Error("u ⊆ v expected, not conversely")
	}
	if v.Comparable(w) {
		t.Error("v and w should be incomparable")
	}
	if !v.Contains(trace.OpID{Proc: 0, Idx: 1}) || v.Contains(trace.OpID{Proc: 0, Idx: 2}) {
		t.Error("Contains boundary wrong")
	}
	var diff []trace.OpID
	v.Diff(u, func(id trace.OpID) { diff = append(diff, id) })
	if len(diff) != 1 || diff[0] != (trace.OpID{Proc: 0, Idx: 1}) {
		t.Errorf("Diff = %v", diff)
	}
	if v.Key() != "2,0,1" {
		t.Errorf("Key = %q", v.Key())
	}
	if !v.Equal(trace.NewView([]int{2, 0, 1})) || v.Equal(u) {
		t.Error("Equal broken")
	}
}

// randomCounterWord emits a random well-formed counter word over n processes
// with the given number of complete operations; a trailing pending invocation
// is never produced so runs terminate.
func randomCounterWord(rng *rand.Rand, n, ops int) trace.Word {
	b := trace.NewB()
	for k := 0; k < ops; k++ {
		p := rng.Intn(n)
		if rng.Intn(2) == 0 {
			b.Op(p, trace.OpInc, trace.Unit{}, trace.Unit{})
		} else {
			b.Op(p, trace.OpRead, trace.Unit{}, trace.Int(rng.Intn(5)))
		}
	}
	return b.Word()
}

func TestArrayKindNames(t *testing.T) {
	// Monitor names and drvsketch's -kind flag spell the kinds this way.
	for k, name := range map[ArrayKind]string{ArrayAtomic: "atomic", ArrayAADGMS: "aadgms", ArrayCollect: "collect"} {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
		if got, err := ParseArrayKind(name); got != k || err != nil {
			t.Errorf("ParseArrayKind(%q) = %d, %v; want %d", name, got, err, k)
		}
	}
	if _, err := ParseArrayKind("snapshot"); err == nil || err.Error() != `unknown array kind "snapshot"` {
		t.Errorf("ParseArrayKind(\"snapshot\"): %v", err)
	}
}

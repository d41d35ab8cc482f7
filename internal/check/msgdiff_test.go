package check

// Differential validation on histories exhibited by the ABD register
// emulation of package abd over the deterministic message network — the
// shapes the explorer's message-passing family feeds the checkers. Three
// checkers are compared pairwise on every history: the memoized witness
// search, the pruned brute reference, and a third, deliberately naive
// exhaustive enumeration written in this file with no sharing of code or
// pruning ideas with either. The histories include the two shapes shared memory never
// produces: operations left pending because a *message* was dropped (the
// quorum stalls with the client parked), and operations pending at a crash
// of a client whose replica dies with it. Workloads are kept tiny (≤ 6
// operations) so the exhaustive reference stays affordable.

import (
	"testing"

	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/spec"
	"github.com/drv-go/drv/internal/sut"
	"github.com/drv-go/drv/internal/word"
)

// abdHistory drives n clients over an aux-served ABD register emulation
// (optionally the no-write-back bug variant) under the given delivery order,
// loss schedule and crash schedule, and returns the exhibited history.
func abdHistory(t *testing.T, n, opsPerProc int, seed int64, bias float64, order msgnet.Order, drops []int, crashStep, crashProc int, buggy bool) word.Word {
	t.Helper()
	rt := sched.New(n, sched.Random(seed))
	defer rt.Stop()
	nt := msgnet.New(n, order)
	nt.SetDrops(drops)
	nt.Register(rt)
	reg := abd.NewRegister("x", n, nt, 0)
	if buggy {
		reg.DropReadWriteBack()
	}
	abd.Servers(rt, n, reg)
	svc := sut.NewService(n, abd.NewRegisterImpl(reg),
		sut.NewRandomWorkload(spec.Register(), n, opsPerProc, bias, seed))
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
	for rt.Steps() < 200_000 {
		if crashStep > 0 && rt.Steps() == crashStep && !rt.Crashed(crashProc) {
			rt.Crash(crashProc)
			nt.Crash(crashProc)
		}
		if !rt.Step() {
			break
		}
	}
	return svc.History()
}

// exhaustiveValid reports whether some order of ops is a legal sequential
// execution honoring the given precedence relation. Unlike permuteValid it
// builds orders by repeatedly placing any operation with no unplaced
// predecessor and replays the specification only at full length — a
// different traversal shape, so a shared blind spot with the brute reference
// is unlikely.
func exhaustiveValid(obj spec.Object, ops []word.Operation, precedes func(a, b word.Operation) bool) bool {
	perm := make([]int, 0, len(ops))
	used := make([]bool, len(ops))
	var rec func() bool
	rec = func() bool {
		if len(perm) == len(ops) {
			st := obj.Init()
			for _, i := range perm {
				next, ret, ok := st.Apply(ops[i].Op, ops[i].Arg)
				if !ok {
					return false
				}
				if !ops[i].Pending() && !ret.Equal(ops[i].Ret) {
					return false
				}
				st = next
			}
			return true
		}
		for i := range ops {
			if used[i] {
				continue
			}
			// Every not-yet-placed predecessor of ops[i] blocks it.
			blocked := false
			for j := range ops {
				if !used[j] && j != i && precedes(ops[j], ops[i]) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			used[i] = true
			perm = append(perm, i)
			if rec() {
				return true
			}
			perm = perm[:len(perm)-1]
			used[i] = false
		}
		return false
	}
	return rec()
}

// exhaustiveSearch decides the consistency condition given by precedes,
// trying every subset of pending operations (each independently either took
// effect before the run ended or did not, as the definitions allow).
func exhaustiveSearch(obj spec.Object, w word.Word, precedes func(a, b word.Operation) bool) bool {
	ops := word.Operations(w)
	var pend []int
	for i := range ops {
		if ops[i].Pending() {
			pend = append(pend, i)
		}
	}
	drop := make(map[int]bool, len(pend))
	for mask := 0; mask < 1<<len(pend); mask++ {
		for k, pi := range pend {
			drop[pi] = mask&(1<<k) == 0
		}
		sub := make([]word.Operation, 0, len(ops))
		for i := range ops {
			if !drop[i] {
				sub = append(sub, ops[i])
			}
		}
		if exhaustiveValid(obj, sub, precedes) {
			return true
		}
	}
	return false
}

// exhaustiveLinearizable is the naive linearizability reference: real-time
// precedence constrains the order.
func exhaustiveLinearizable(obj spec.Object, w word.Word) bool {
	return exhaustiveSearch(obj, w, word.Operation.Precedes)
}

// exhaustiveSeqConsistent is the naive sequential-consistency reference:
// only per-process program order constrains the order.
func exhaustiveSeqConsistent(obj spec.Object, w word.Word) bool {
	return exhaustiveSearch(obj, w, func(a, b word.Operation) bool {
		return a.ID.Proc == b.ID.Proc && a.ID.Idx < b.ID.Idx
	})
}

func TestFrontSearchMatchesBruteOnABDHistories(t *testing.T) {
	obj := spec.Register()
	cases := []struct {
		name      string
		order     func(seed int64) msgnet.Order
		bias      float64
		seeds     int64
		drops     []int
		crashStep int
		buggy     bool
	}{
		{name: "fifo/clean", order: func(int64) msgnet.Order { return msgnet.FIFOOrder() }},
		{name: "random/clean", order: msgnet.RandomOrder},
		{name: "random/dropped", order: msgnet.RandomOrder, drops: []int{0, 2, 4, 7}},
		{name: "random/crash", order: msgnet.RandomOrder, crashStep: 25},
		{name: "random/crash+dropped", order: msgnet.RandomOrder, drops: []int{1, 3, 5}, crashStep: 40},
		// The buggy variant demotes reads to regular; the inversion window
		// needs read-leaning traffic and LIFO delivery (see package abd) and
		// is rare at 6-operation workloads, so these cases hunt over many
		// seeds (the stack is deterministic: seed 243 of the first case is a
		// stable non-linearizable hit).
		{name: "lifo/nowriteback", order: func(int64) msgnet.Order { return msgnet.LIFOOrder() }, seeds: 300, buggy: true},
		{name: "lifo/nowriteback+dropped", order: func(int64) msgnet.Order { return msgnet.LIFOOrder() }, seeds: 300, drops: []int{2, 3}, buggy: true},
	}
	const n, opsPerProc = 3, 2
	sawPending, sawNonLin := false, false
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			bias, seeds := tc.bias, tc.seeds
			if bias == 0 {
				bias = 0.4
			}
			if seeds == 0 {
				seeds = 10
			}
			for seed := int64(1); seed <= seeds; seed++ {
				h := abdHistory(t, n, opsPerProc, seed, bias, tc.order(seed), tc.drops, tc.crashStep, 1, tc.buggy)
				ops := word.Operations(h)
				if len(ops) == 0 || len(ops) > 6 {
					continue
				}
				for i := range ops {
					if ops[i].Pending() {
						sawPending = true
					}
				}
				fastLin := LinearizableOps(obj, ops)
				if !fastLin {
					sawNonLin = true
				}
				if brute := BruteLinearizable(obj, h); brute != fastLin {
					t.Errorf("%s seed %d: witness search lin=%v, brute lin=%v on\n%v", tc.name, seed, fastLin, brute, h)
				}
				if ex := exhaustiveLinearizable(obj, h); ex != fastLin {
					t.Errorf("%s seed %d: witness search lin=%v, exhaustive lin=%v on\n%v", tc.name, seed, fastLin, ex, h)
				}
				fastSC := SeqConsistentOps(obj, ops)
				if brute := BruteSeqConsistent(obj, h); brute != fastSC {
					t.Errorf("%s seed %d: witness search sc=%v, brute sc=%v on\n%v", tc.name, seed, fastSC, brute, h)
				}
				if ex := exhaustiveSeqConsistent(obj, h); ex != fastSC {
					t.Errorf("%s seed %d: witness search sc=%v, exhaustive sc=%v on\n%v", tc.name, seed, fastSC, ex, h)
				}
				if fastLin && !fastSC {
					t.Errorf("%s seed %d: linearizable but not sequentially consistent:\n%v", tc.name, seed, h)
				}
			}
		})
	}
	if !sawPending {
		t.Error("no drop or crash left an operation pending; the differential never hit the pending path")
	}
	if !sawNonLin {
		t.Error("no history violated linearizability; the differential never exercised a negative verdict")
	}
}

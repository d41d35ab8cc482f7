package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// op is one step-ending action of a drive-test process body.
type op uint8

const (
	opPause op = iota // Pause
	opAwait           // Await a token on the process's own gate, then take it
	opOpen            // put a token on the next process's gate, top up an aux actor's budget, Pause
	opExit            // return from the body
	numOps
)

// workload describes a drive-test execution. Process i cycles through
// bodies[i] rounds times (forever when rounds is 0) and then exits. Aux actor
// k is runnable while budget[k] lasts; each of its steps spends one unit to
// put a token on gate k mod n. The before-step hook crashes the processes
// crash lists at each step count.
type workload struct {
	bodies [][]op
	rounds int
	budget []int
	crash  map[int][]int
}

// world is the shared state of one execution of a workload.
type world struct {
	rt     *Runtime
	w      workload
	tokens []int // per process: the tokens on its gate
	budget []int // per aux actor
	auxIDs []int
	order  []int // the actor of each step, in step order
	hooks  []int // the step counts the before-step hook was called with
	chain  chainStats
}

// chainStats records the chains of resumers an execution built: they differ
// between drive modes (single Steps never build one), so they are kept out
// of the outcome the modes must agree on.
type chainStats struct {
	// deepest is the longest chain a step ran on top of, counting the
	// running process.
	deepest int
	// crashedCalling counts the crashes the hook made of a process waiting
	// inside another's next; exitedResumed counts the bodies that returned
	// on a process that another process had resumed.
	crashedCalling, exitedResumed int
}

// depth is the length of the chain the running process is on top of.
func (wd *world) depth() int {
	d := 1
	for _, p := range wd.rt.procs[:wd.rt.n] {
		if p.calling {
			d++
		}
	}
	return d
}

// stepStarts records that process i's step starts.
func (wd *world) stepStarts(i int) {
	wd.order = append(wd.order, i)
	wd.chain.deepest = max(wd.chain.deepest, wd.depth())
}

// outcome is everything the two drive modes must agree on.
type outcome struct {
	Order, Hooks    []int
	Steps, Ran      int
	Exited, Crashed []bool
}

// body is process i's body: it records each of its steps as the step
// starts, and whether another process had resumed it when it returns.
func (wd *world) body(i int) func(p *Proc) {
	n := len(wd.w.bodies)
	run := func(p *Proc) {
		wd.stepStarts(i)
		for r := 0; wd.w.rounds == 0 || r < wd.w.rounds; r++ {
			for _, o := range wd.w.bodies[i] {
				switch o {
				case opPause:
					p.Pause()
				case opAwait:
					p.Await(func() bool { return wd.tokens[i] > 0 })
				case opOpen:
					j := (i + 1) % n
					wd.tokens[j]++
					wd.rt.Wake(j)
					if len(wd.budget) > 0 {
						k := i % len(wd.budget)
						wd.budget[k]++
						wd.rt.Wake(wd.auxIDs[k])
					}
					p.Pause()
				case opExit:
					return
				}
				wd.stepStarts(i)
				if o == opAwait {
					wd.tokens[i]--
				}
			}
		}
	}
	return func(p *Proc) {
		run(p)
		if wd.depth() > 1 {
			wd.chain.exitedResumed++
		}
	}
}

// before is the before-step hook: it records the call and applies the crash
// schedule.
func (wd *world) before(step int) {
	wd.hooks = append(wd.hooks, step)
	for _, id := range wd.w.crash[step] {
		if wd.rt.procs[id].calling {
			wd.chain.crashedCalling++
		}
		wd.rt.Crash(id)
	}
}

// driveMode is how a drive test hands the runtime its steps.
type driveMode int

const (
	bySteps  driveMode = iota // one Step call at a time
	byRun                     // one Run, or RunWith when hooked
	byChunks                  // random-sized Run/RunWith chunks and single Steps
)

// drive executes w under the policy mk builds for its aux IDs for up to
// limit steps, handing the runtime its steps in mode m, with the world's
// before-step hook when hooked.
func drive(w workload, mk func(aux []int) Policy, hooked bool, limit int, m driveMode) (outcome, chainStats) {
	n := len(w.bodies)
	rt := New(n, nil)
	defer rt.Stop()
	wd := &world{rt: rt, w: w, tokens: make([]int, n), budget: append([]int(nil), w.budget...)}
	for k := range wd.budget {
		wd.auxIDs = append(wd.auxIDs, rt.AddAux(func() bool { return wd.budget[k] > 0 }, func() {
			wd.order = append(wd.order, wd.auxIDs[k])
			wd.budget[k]--
			g := k % n
			wd.tokens[g]++
			rt.Wake(g)
		}))
	}
	rt.SetPolicy(mk(wd.auxIDs))
	for i := 0; i < n; i++ {
		rt.Spawn(i, wd.body(i))
	}
	var hook func(int)
	if hooked {
		hook = wd.before
	}
	step := func() bool {
		if hook != nil {
			hook(rt.Steps())
		}
		return rt.Step()
	}
	ran := 0
	switch m {
	case bySteps:
		for ran < limit && step() {
			ran++
		}
	case byRun:
		if hook != nil {
			ran = rt.RunWith(limit, hook)
		} else {
			ran = rt.Run(limit)
		}
	case byChunks:
		rng := rand.New(rand.NewSource(int64(limit)))
		for ran < limit {
			k := 1 + rng.Intn(limit-ran)
			got := 0
			switch {
			case k == 1 || rng.Intn(3) == 0:
				k = 1
				if step() {
					got = 1
				}
			case hook != nil:
				got = rt.RunWith(k, hook)
			default:
				got = rt.Run(k)
			}
			ran += got
			if got < k {
				break
			}
		}
	}
	o := outcome{Order: wd.order, Hooks: wd.hooks, Steps: rt.Steps(), Ran: ran}
	for i := 0; i < n; i++ {
		o.Exited = append(o.Exited, rt.Exited(i))
		o.Crashed = append(o.Crashed, rt.Crashed(i))
	}
	return o, wd.chain
}

// drivePolicies are the policies the differential covers. favourite is the
// first aux actor, or process 0 when there is none; script is the sequence
// a Script policy replays before its fallback.
var drivePolicies = []struct {
	name string
	mk   func(seed int64, aux, script []int) Policy
}{
	{"random", func(seed int64, _, _ []int) Policy { return Random(seed) }},
	{"biased", func(seed int64, aux, _ []int) Policy { return Biased(seed, favourite(aux), 0.6) }},
	{"bursty", func(seed int64, _, _ []int) Policy { return BurstyFrom(newRand(seed), 4) }},
	{"prioritize", func(seed int64, aux, _ []int) Policy { return Prioritize(favourite(aux), Random(seed)) }},
	{"script", func(seed int64, _, script []int) Policy { return Script(script, Random(seed+1)) }},
}

func favourite(aux []int) int {
	if len(aux) > 0 {
		return aux[0]
	}
	return 0
}

// driveStats counts what the differential's cases covered.
type driveStats struct {
	stalled, exited, crashedCurrent, switchless int
	chainStats
}

// checkRunMatchesSteps runs workload w under policy pi for up to limit
// steps, with no hook and then with a crash schedule that crashes the
// process whose step just ended and one that is likely on the chain of
// resumers, and requires Run, RunWith and chunked driving to reproduce
// single Step calls exactly.
func checkRunMatchesSteps(t testing.TB, w workload, pi int, seed int64, limit int, st *driveStats) {
	t.Helper()
	pol := drivePolicies[pi]
	n := len(w.bodies)
	policy := func(hooked bool, w workload) func(aux []int) Policy {
		var script []int
		if pol.name == "script" {
			// Replay the first half of a random schedule of the same run:
			// every entry is runnable when consumed.
			base, _ := drive(w, func([]int) Policy { return Random(seed) }, hooked, limit, bySteps)
			script = base.Order[:len(base.Order)/2]
		}
		return func(aux []int) Policy { return pol.mk(seed, aux, script) }
	}
	compare := func(w workload, hooked bool) outcome {
		t.Helper()
		want, _ := drive(w, policy(hooked, w), hooked, limit, bySteps)
		for _, m := range []driveMode{byRun, byChunks} {
			got, cs := drive(w, policy(hooked, w), hooked, limit, m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d limit %d hooked=%t crash=%v mode %d:\n got %+v\nwant %+v",
					pol.name, seed, limit, hooked, w.crash, m, got, want)
			}
			st.deepest = max(st.deepest, cs.deepest)
			st.crashedCalling += cs.crashedCalling
			st.exitedResumed += cs.exitedResumed
		}
		if want.Ran < limit {
			st.stalled++
		}
		for i := range want.Exited {
			if want.Exited[i] {
				st.exited++
			}
		}
		for s := 1; s < len(want.Order); s++ {
			if want.Order[s] == want.Order[s-1] && want.Order[s] < n {
				st.switchless++
				break
			}
		}
		return want
	}
	base := compare(w, false)
	// Crash the process whose step ended just before a third and two thirds
	// of the run: the hook fires while that process makes the choice. At
	// half the run, crash the process of the step before, when it differs:
	// a Run that handed that step over directly waits inside the next of
	// the process that now chooses.
	crash := map[int][]int{}
	for _, s := range []int{len(base.Order) / 3, 2 * len(base.Order) / 3} {
		if s > 0 && base.Order[s-1] < n {
			crash[s] = append(crash[s], base.Order[s-1])
		}
	}
	if s := len(base.Order) / 2; s > 1 && base.Order[s-2] < n && base.Order[s-2] != base.Order[s-1] && crash[s] == nil {
		crash[s] = []int{base.Order[s-2]}
	}
	w.crash = crash
	hooked := compare(w, true)
	for s, ids := range crash {
		if s <= len(hooked.Order) && hooked.Order[s-1] == ids[0] {
			st.crashedCurrent++
		}
	}
}

// driveWorkloads are the hand-written workloads: free-running pausers, gate
// chains that aux actors and other processes open, early exits, and runs
// that stall once every budget is spent.
var driveWorkloads = []workload{
	{bodies: [][]op{{opPause}, {opPause}, {opPause}}},
	{bodies: [][]op{{opPause, opAwait}, {opOpen, opPause}, {opAwait, opOpen}}, budget: []int{3}},
	{bodies: [][]op{{opAwait, opOpen}, {opAwait, opOpen}, {opAwait, opOpen}, {opPause, opOpen}}, budget: []int{2, 1}},
	{bodies: [][]op{{opPause, opPause, opExit}, {opAwait}, {opOpen}}, rounds: 5, budget: []int{4}},
	{bodies: [][]op{{opAwait}, {opAwait}}, budget: []int{5, 5}},
	{bodies: [][]op{{opPause, opOpen, opAwait}, {opPause}}, rounds: 7, budget: []int{1}},
	{bodies: [][]op{{opExit}, {opPause, opAwait}}, budget: []int{2}},
	{bodies: [][]op{{opPause}, {opPause, opOpen}, {opAwait}, {opPause}, {opPause, opExit}, {opPause}}, rounds: 6, budget: []int{2}},
}

// TestRunMatchesSteps is the drive differential: for every policy, Run(N)
// and RunWith(N, before) take exactly the steps of N single Step calls (with
// before called ahead of each) — the same actors in the same order, the same
// hook calls, step count, stall point and final process states — while the
// maintained ≡ polled check re-polls every choice. The runs build chains of
// resumers at least four deep, crash processes waiting on them and return
// bodies of processes that another process resumed.
func TestRunMatchesSteps(t *testing.T) {
	defer VerifyRunnable(VerifyRunnable(true))
	var st driveStats
	for wi, w := range driveWorkloads {
		for pi := range drivePolicies {
			for _, limit := range []int{1, 2, 17, 120} {
				seed := int64(wi*31 + pi*7 + limit)
				t.Run(fmt.Sprintf("w%d/%s/%d", wi, drivePolicies[pi].name, limit), func(t *testing.T) {
					checkRunMatchesSteps(t, w, pi, seed, limit, &st)
				})
			}
		}
	}
	if st.stalled == 0 || st.exited == 0 || st.crashedCurrent == 0 || st.switchless == 0 ||
		st.deepest < 4 || st.crashedCalling == 0 || st.exitedResumed == 0 {
		t.Errorf("differential left a path uncovered: %+v", st)
	}
}

// chainSeed is a FuzzRunMatchesSteps input of six free-running processes
// under Random that builds a chain of resumers at least four deep.
var chainSeed = []byte{5, 0, 0, 0, 11, 119, 0, 0, 0, 0, 0, 0}

// decodeDrive derives a drive-differential case from a fuzz input: one to six
// processes with one to four ops each, up to two aux actors, rounds, a
// policy, a seed and a step limit.
func decodeDrive(data []byte) (w workload, pi int, seed int64, limit int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%6
	auxN := next() % 3
	w.rounds = next() % 4
	pi = next() % len(drivePolicies)
	seed = int64(next())
	limit = 1 + next()%120
	for i := 0; i < n; i++ {
		ops := make([]op, 1+next()%4)
		for k := range ops {
			ops[k] = op(next() % int(numOps))
		}
		w.bodies = append(w.bodies, ops)
	}
	for k := 0; k < auxN; k++ {
		w.budget = append(w.budget, next()%6)
	}
	return w, pi, seed, limit
}

// TestChainSeedIsDeep keeps chainSeed's promise.
func TestChainSeedIsDeep(t *testing.T) {
	w, pi, seed, limit := decodeDrive(chainSeed)
	_, cs := drive(w, func(aux []int) Policy { return drivePolicies[pi].mk(seed, aux, nil) }, false, limit, byRun)
	if cs.deepest < 4 {
		t.Fatalf("chainSeed's deepest chain is %d processes, want at least 4", cs.deepest)
	}
}

// FuzzRunMatchesSteps derives a workload — process count, body shapes, aux
// budgets, rounds — with a policy, seed and step limit from the input and
// runs the drive differential on it.
func FuzzRunMatchesSteps(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 7, 40, 1, 2, 0, 3, 2})
	f.Add([]byte{3, 2, 3, 4, 9, 90, 0, 1, 2, 1, 2, 3, 0, 2, 1, 4, 4})
	f.Add([]byte{0, 0, 1, 2, 1, 5, 3})
	f.Add([]byte{3, 1, 2, 3, 200, 255, 1, 1, 2, 2, 3, 0, 1, 1, 2, 0, 3, 2})
	f.Add(chainSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		w, pi, seed, limit := decodeDrive(data)
		defer VerifyRunnable(VerifyRunnable(true))
		checkRunMatchesSteps(t, w, pi, seed, limit, &driveStats{})
	})
}

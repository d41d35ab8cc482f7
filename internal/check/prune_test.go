package check

// Differential coverage of dead-state pruning (prune.go): on random queue,
// stack and ledger histories, fed per prefix through Append/OK, through
// CheckExtending with rewinds and through the one-shot search, the pruned
// search must give the unpruned search's verdicts and, on small histories,
// brute force's; and every rule test the search runs must equal the same
// rule computed from scratch. Three mutant rules must each fail.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// pruneBruteOps is the largest history, in operations, the differential also
// checks by brute force: the explorer's bruteOpsCap.
const pruneBruteOps = 7

// plainObject wraps its object's states in plainState, which keeps Apply,
// AppendKey and ID but hides the pruning interfaces: the unpruned reference.
type plainObject struct{ trace.Object }

func (o plainObject) Init() trace.State { return plainState{o.Object.Init()} }

type plainState struct{ st trace.State }

func (s plainState) Apply(op string, arg trace.Value) (trace.State, trace.Value, bool) {
	next, ret, ok := s.st.Apply(op, arg)
	return plainState{next}, ret, ok
}

func (s plainState) AppendKey(b []byte) []byte { return s.st.AppendKey(b) }
func (s plainState) ID() uint64                { return s.st.(trace.Interned).ID() }

// reseed switches a generator's random stream: from symbol at on, draws
// come from seed.
type reseed struct {
	at   int
	seed int64
}

// pruneWord draws a history of obj over n processes from a shadow run:
// each operation takes effect at a random moment inside its interval, and
// one response in six is replaced by a plausible wrong one. Arguments repeat
// (0–2, and for queues and stacks Empty's −1 one time in six), removers may
// return Empty, a process may crash with an operation pending (taken effect
// or not), and a wrong get drops, changes or adds a record, so gets need not
// form a prefix chain. The draws come from the streams of seeds, each from
// its symbol on, so two draws whose seeds agree before symbol k share their
// first k symbols.
func pruneWord(obj trace.Object, n, steps int, seeds []reseed) trace.Word {
	type open struct {
		op       string
		arg, ret trace.Value
		applied  bool
	}
	var rng *rand.Rand
	pend := make([]*open, n)
	crashed := make([]bool, n)
	live := n
	shadow := obj.Init()
	sigs := obj.Ops()
	var w trace.Word
	for len(w) < steps && live > 0 {
		if len(seeds) > 0 && seeds[0].at == len(w) {
			rng = rand.New(rand.NewSource(seeds[0].seed))
			seeds = seeds[1:]
		}
		p := rng.Intn(n)
		if crashed[p] {
			continue
		}
		o := pend[p]
		switch {
		case o == nil:
			sig := sigs[rng.Intn(len(sigs))]
			o = &open{op: sig.Name, arg: pruneArg(rng, sig.Name)}
			pend[p] = o
			w = append(w, trace.NewInv(p, o.op, o.arg))
		case rng.Intn(12) == 0:
			crashed[p] = true
			live--
			if !o.applied && rng.Intn(2) == 0 {
				shadow, _, _ = shadow.Apply(o.op, o.arg)
			}
		case !o.applied:
			nxt, ret, ok := shadow.Apply(o.op, o.arg)
			if !ok {
				panic("pruneWord: the shadow refuses " + o.op)
			}
			if rng.Intn(6) == 0 {
				ret = pruneRet(rng, o.op, ret)
			}
			shadow, o.ret, o.applied = nxt, ret, true
		default:
			w = append(w, trace.NewRes(p, o.op, o.ret))
			pend[p] = nil
		}
	}
	return w
}

func pruneArg(rng *rand.Rand, op string) trace.Value {
	switch op {
	case trace.OpEnq, trace.OpPush:
		if rng.Intn(6) == 0 {
			return trace.Empty
		}
		return trace.Int(rng.Intn(3))
	case trace.OpAppend:
		return trace.Rec([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	return trace.Unit{}
}

// pruneRet returns a plausible wrong response in place of ret.
func pruneRet(rng *rand.Rand, op string, ret trace.Value) trace.Value {
	switch op {
	case trace.OpDeq, trace.OpPop:
		return trace.Int(rng.Intn(5) - 1)
	case trace.OpGet:
		s := slices.Clone(ret.(trace.Seq))
		switch k := rng.Intn(3); {
		case k == 0 && len(s) > 0:
			return s[:len(s)-1]
		case k == 1 && len(s) > 0:
			s[rng.Intn(len(s))] = trace.Rec([]string{"a", "b", "c"}[rng.Intn(3)])
			return s
		}
		return append(s, trace.Rec([]string{"a", "b", "c"}[rng.Intn(3)]))
	}
	return ret
}

// pruneDiff is one run of the differential, recording the first mismatch of
// each kind.
type pruneDiff struct {
	rule    func(c *Incremental, st trace.State, oi int) bool
	verdict string // a verdict unlike the unpruned search's or brute force's
	ref     string // a rule test unlike the from-scratch rule
	tests   int    // rule tests run
	deaths  int    // of them, nodes found dead
	brute   int    // verdicts checked by brute force
}

// hook gives c the differential's rule, checking every test it runs
// against refDead.
func (d *pruneDiff) hook(c *Incremental) *Incremental {
	rule := d.rule
	c.pr.dead = func(c *Incremental, st trace.State, oi int) bool {
		got := rule(c, st, oi)
		d.tests++
		if got {
			d.deaths++
		}
		if want := refDead(c, st, oi); got != want && d.ref == "" {
			d.ref = fmt.Sprintf("rule %v, from scratch %v at fronts %v after placing %d, state %s, on\n%v",
				got, want, c.sFront, oi, st.AppendKey(nil), c.syms)
		}
		return got
	}
	return c
}

// verdicts compares the pruned verdicts on w, each named by how, with the
// unpruned one and, on small histories, brute force's.
func (d *pruneDiff) verdicts(obj trace.Object, realTime bool, w trace.Word, got []bool, how ...string) {
	if d.verdict != "" {
		return
	}
	ops := trace.Operations(w)
	want, ref := checkOps(plainObject{obj}, ops, realTime), "unpruned"
	if len(ops) <= pruneBruteOps {
		d.brute++
		if brute := bruteSearch(obj, ops, realTime); brute != want {
			want, ref = brute, "brute"
		}
	}
	for i := range got {
		if got[i] != want {
			d.verdict = fmt.Sprintf("%s realTime=%v %s: pruned %v, %s %v on\n%v", obj.Name(), realTime, how[i], got[i], ref, want, w)
			return
		}
	}
}

// run feeds the differential's histories of obj: chains of six words, each
// but the first keeping a random prefix of the last and continuing it. A
// fresh Append/OK checker takes each word prefix by prefix; one
// CheckExtending checker follows each chain, rewinding to the kept prefix at
// each new word and then taking it prefix by prefix; and the one-shot search
// takes each whole word.
func (d *pruneDiff) run(obj trace.Object, chains int) {
	for _, realTime := range []bool{true, false} {
		for chain := 0; chain < chains; chain++ {
			n := 2 + chain%2
			rng := rand.New(rand.NewSource(int64(chain)))
			ext := d.hook(NewIncremental(obj, realTime, n))
			var last trace.Word
			var seeds []reseed
			for word := 0; word < 6; word++ {
				cut := rng.Intn(len(last) + 1)
				for len(seeds) > 0 && seeds[len(seeds)-1].at >= cut {
					seeds = seeds[:len(seeds)-1]
				}
				seeds = append(seeds, reseed{cut, rng.Int63()})
				w := pruneWord(obj, n, 10+chain%6*4, seeds)
				if k := min(cut, len(w)); !slices.EqualFunc(w[:k], last[:k], trace.Symbol.Equal) {
					panic("pruneWord: a continued word changed its kept prefix")
				}
				inc := d.hook(NewIncremental(obj, realTime, n))
				for i, s := range w {
					inc.Append(s)
					at := fmt.Sprintf("chain %d word %d prefix %d", chain, word, i+1)
					if i < cut {
						d.verdicts(obj, realTime, w[:i+1], []bool{inc.OK()}, "Append "+at)
						continue
					}
					// The checker holds last, or from the cut on w[:i].
					same := i
					if i == cut {
						same = cut * (word % 2)
					}
					d.verdicts(obj, realTime, w[:i+1],
						[]bool{inc.OK(), ext.CheckExtending(w[:i+1], same)},
						"Append "+at, "CheckExtending "+at)
				}
				if ops := trace.Operations(w); len(ops) > 0 {
					d.verdicts(obj, realTime, w, []bool{d.hook(oneShot(obj, ops, realTime)).search()},
						fmt.Sprintf("chain %d word %d one-shot", chain, word))
				}
				last = w
			}
		}
	}
}

// refDead is the rules of prune.go computed from scratch at a search node:
// the unplaced operations are those at or after each row's front, counted
// afresh, and the state is read whole. A child node passes the ledger's full
// start test exactly when the per-append test passes, since its parent
// passed it.
func refDead(c *Incremental, st trace.State, _ int) bool {
	var unplaced []*trace.Operation
	for p, row := range c.byProc {
		for _, oi := range row[c.sFront[p]:] {
			unplaced = append(unplaced, &c.ops[oi])
		}
	}
	switch s := st.(type) {
	case listState:
		add, remove, oldest := s.ListOps()
		emptyAdded := false
		for i := range c.ops {
			emptyAdded = emptyAdded || c.ops[i].Op == add && c.ops[i].Arg == trace.Value(trace.Empty)
		}
		take, adds := map[trace.Int]int{}, map[trace.Int]int{}
		wild, empty := 0, 0
		for _, o := range unplaced {
			switch {
			case o.Op == add:
				adds[o.Arg.(trace.Int)]++
			case o.Op != remove:
			case o.Pending(), o.Ret == trace.Value(trace.Empty) && emptyAdded:
				wild++
			case o.Ret == trace.Value(trace.Empty):
				empty++
			default:
				take[o.Ret.(trace.Int)]++
			}
		}
		stuck := false
		for _, x := range s.AppendItems(nil) {
			switch {
			case take[x] > 0:
				take[x]--
			case wild > 0:
				wild--
			default:
				stuck = true
			}
			if stuck {
				break
			}
		}
		if stuck && empty > 0 {
			return true
		}
		for v, k := range take {
			if k > 0 && (stuck && oldest || k > adds[v]) {
				return true
			}
		}
		return false
	case logState:
		_, get := s.LogOps()
		_, all, _ := st.Apply(get, trace.Unit{})
		recs := all.(trace.Seq)
		longest := -1
		for i := range c.ops {
			if o := &c.ops[i]; o.Op == get && !o.Pending() {
				longest = max(longest, len(o.Ret.(trace.Seq)))
			}
		}
		if c.pr.gp >= 0 {
			g := &c.ops[c.byProc[c.pr.gp][c.pr.gi]]
			if g.Op != get || g.Pending() || len(g.Ret.(trace.Seq)) != longest || !g.Ret.Equal(c.pr.g) {
				panic(fmt.Sprintf("the longest get is %v, not one of %d records", g, longest))
			}
		} else if longest >= 0 {
			panic("no longest get is kept")
		}
		for _, o := range unplaced {
			if o.Op == get && !o.Pending() && len(o.Ret.(trace.Seq)) < len(recs) {
				return true
			}
		}
		if c.pr.gp < 0 || c.sFront[c.pr.gp] > c.pr.gi {
			return false
		}
		return len(c.pr.g) < len(recs) || !slices.Equal(c.pr.g[:len(recs)], recs)
	}
	panic("refDead: a state without a pruning rule")
}

// TestPruneDifferential pins the pruned search to the unpruned one, to brute
// force and to the rules computed from scratch, on queue, stack and ledger
// histories under both orders.
func TestPruneDifferential(t *testing.T) {
	chains := 24
	if testing.Short() {
		chains = 8
	}
	for _, obj := range []trace.Object{trace.Queue(), trace.Stack(), trace.Ledger()} {
		d := &pruneDiff{rule: NewIncremental(obj, true, 1).pr.dead}
		d.run(obj, chains)
		t.Logf("%s: %d rule tests, %d dead nodes, %d verdicts checked by brute force", obj.Name(), d.tests, d.deaths, d.brute)
		if d.verdict != "" {
			t.Errorf("%s: %s", obj.Name(), d.verdict)
		}
		if d.ref != "" {
			t.Errorf("%s: %s", obj.Name(), d.ref)
		}
		if d.deaths == 0 || d.brute == 0 {
			t.Errorf("%s: %d dead nodes and %d brute-force verdicts; the differential has no teeth", obj.Name(), d.deaths, d.brute)
		}
	}
}

// TestPruneMutantsFail runs the differential with three broken rules. A
// queue rule that lets later enqueues leave from behind a stuck item only
// prunes less, so no verdict can show it; the from-scratch rule must. A
// stack rule that ignores pending pops, and a ledger rule that keeps
// checking the longest get after it is placed, prune live nodes, so both
// must also give a wrong verdict.
func TestPruneMutantsFail(t *testing.T) {
	mutants := []struct {
		name    string
		obj     trace.Object
		rule    func(c *Incremental, st trace.State, oi int) bool
		verdict bool // must give a wrong verdict, not only a wrong test
	}{
		{"queue: later enqueues leave past a stuck item", trace.Queue(), func(c *Incremental, st trace.State, _ int) bool {
			wild, empty := c.pr.cur.any, c.pr.cur.empty
			if c.pr.negAdds > 0 {
				wild, empty = wild+empty, 0
			}
			return c.listDead(st, wild, empty, false)
		}, false},
		{"stack: pending pops are no wildcards", trace.Stack(), func(c *Incremental, st trace.State, _ int) bool {
			wild, empty := 0, c.pr.cur.empty
			if c.pr.negAdds > 0 {
				wild, empty = empty, 0
			}
			return c.listDead(st, wild, empty, c.pr.oldest)
		}, true},
		{"ledger: the longest get binds after it is placed", trace.Ledger(), func(c *Incremental, st trace.State, oi int) bool {
			return c.logDead(oi, c.pr.gp >= 0)
		}, true},
	}
	for _, m := range mutants {
		d := &pruneDiff{rule: m.rule}
		d.run(m.obj, 24)
		t.Logf("%s:\n  verdict: %s\n  rule test: %s", m.name, d.verdict, d.ref)
		if d.ref == "" || m.verdict && d.verdict == "" {
			t.Errorf("%s: the differential passes the mutant", m.name)
		}
	}
}

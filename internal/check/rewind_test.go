package check

// Differential coverage of CheckExtending's rewind: one checker follows a
// chain of words, each the last with its final 0–4 symbols replaced by fresh
// well-formed ones, and every verdict must be a fresh checker's and, on
// small histories, the brute-force reference's.

import (
	"math/rand"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// rewindBruteOps is the largest history, in operations, the rewind
// differential also checks by brute force.
const rewindBruteOps = 7

// chainOp is a generator process's open operation. It takes effect on the
// shadow at a random moment between its invocation and its response, so
// responses arrive out of linearization order and operations take effect
// while pending, the shapes that make a witness place pending operations.
type chainOp struct {
	op       string
	arg, ret trace.Value
	open     bool
	applied  bool
}

// chainState is the generator's state between two symbols.
type chainState struct {
	shadow trace.State
	pend   [3]chainOp
}

// wordChain generates the chain: snaps[i] is the generator's state after
// w[:i], so the chain can regrow from any cut.
type wordChain struct {
	obj   trace.Object
	n     int
	rng   *rand.Rand
	w     trace.Word
	snaps []chainState
}

func newWordChain(obj trace.Object, n int, rng *rand.Rand) *wordChain {
	return &wordChain{obj: obj, n: n, rng: rng, snaps: []chainState{{shadow: obj.Init()}}}
}

// next replaces the last d symbols of the word (d drawn from 0–4) by fresh
// ones, and returns the new word and the length of the prefix it kept.
func (g *wordChain) next() (trace.Word, int) {
	d := min(g.rng.Intn(5), len(g.w))
	g.w = g.w[:len(g.w)-d]
	kept := len(g.w)
	g.snaps = g.snaps[:len(g.w)+1]
	fresh := g.rng.Intn(d + 3)
	if len(g.w) > 24 {
		fresh = g.rng.Intn(d + 1)
	}
	sigs := g.obj.Ops()
	for added := 0; added < fresh; {
		st := g.snaps[len(g.snaps)-1]
		p := g.rng.Intn(g.n)
		o := &st.pend[p]
		var sym trace.Symbol
		switch {
		case !o.open:
			sig := sigs[g.rng.Intn(len(sigs))]
			*o = chainOp{op: sig.Name, arg: randomArg(g.rng, sig.Name), open: true}
			sym = trace.NewInv(p, o.op, o.arg)
		case !o.applied:
			nxt, ret, ok := st.shadow.Apply(o.op, o.arg)
			if !ok {
				panic("chain: the shadow refuses " + o.op)
			}
			if g.rng.Intn(6) == 0 {
				ret = randomRet(g.rng, o.op)
			}
			st.shadow, o.ret, o.applied = nxt, ret, true
			g.snaps[len(g.snaps)-1] = st
			continue
		default:
			sym = trace.NewRes(p, o.op, o.ret)
			*o = chainOp{}
		}
		g.w = append(g.w, sym)
		g.snaps = append(g.snaps, st)
		added++
	}
	return append(trace.Word(nil), g.w...), kept
}

// rewindCover counts what the rewinds undid, by the checker's state before
// each: symbols of each kind, operations placed while pending, and complete
// operations the append-at-end repair placed (placed but unranked).
type rewindCover struct {
	inv, res, placedPending, repaired int
}

func (rc *rewindCover) note(c *Incremental, w trace.Word) {
	k := 0
	for k < len(c.syms) && k < len(w) && c.syms[k].Equal(w[k]) {
		k++
	}
	for oi := range c.ops {
		o := &c.ops[oi]
		if o.Inv >= k {
			rc.inv++
		}
		if o.Res >= k {
			rc.res++
		}
		if o.Inv < k && o.Res < k {
			continue // untouched by the rewind
		}
		switch {
		case c.at[oi] < 0:
		case o.Pending():
			rc.placedPending++
		case c.rank[oi] < 0:
			rc.repaired++
		}
	}
}

// TestIncrementalRewindDifferential follows word chains through one checker
// per object and order mode. Every verdict must equal a fresh checker's on
// the same word and, up to rewindBruteOps operations, brute force's; every
// rewind category must occur.
func TestIncrementalRewindDifferential(t *testing.T) {
	objs := []trace.Object{trace.Register(), trace.Ledger(), trace.Queue(), trace.Stack()}
	chains, words := 12, 80
	if testing.Short() {
		chains = 4
	}
	for _, obj := range objs {
		for _, realTime := range []bool{true, false} {
			rng := rand.New(rand.NewSource(int64(len(obj.Name())) + 41))
			var cover rewindCover
			brute := 0
			for chain := 0; chain < chains; chain++ {
				n := 2 + chain%2
				chk := NewIncremental(obj, realTime, n)
				g := newWordChain(obj, n, rng)
				for i := 0; i < words; i++ {
					w, kept := g.next()
					cover.note(chk, w)
					same := 0
					if rng.Intn(2) == 0 {
						same = kept // as a sketch builder reports it
					}
					got := chk.CheckExtending(w, same)
					if want := checkWord(NewIncremental(obj, realTime, n), w); got != want {
						t.Fatalf("%s realTime=%v chain %d word %d: rewound checker %v, fresh %v on\n%v",
							obj.Name(), realTime, chain, i, got, want, w)
					}
					if ops := trace.Operations(w); len(ops) <= rewindBruteOps {
						brute++
						if want := bruteSearch(obj, ops, realTime); got != want {
							t.Fatalf("%s realTime=%v chain %d word %d: rewound checker %v, brute %v on\n%v",
								obj.Name(), realTime, chain, i, got, want, w)
						}
					}
				}
			}
			t.Logf("%s realTime=%v: rewinds undid %+v; %d words checked by brute force",
				obj.Name(), realTime, cover, brute)
			if cover.inv == 0 || cover.res == 0 || cover.placedPending == 0 || cover.repaired == 0 || brute == 0 {
				t.Errorf("%s realTime=%v: a rewind category never occurred: %+v, %d brute-force words",
					obj.Name(), realTime, cover, brute)
			}
		}
	}
}

package lang

import (
	"fmt"
	"os"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
)

// violated adapts a language's judge to a word test.
func violated(l Lang) func(trace.Word) bool {
	return func(w trace.Word) bool { return l.Judge.Violation(w, nil) != nil }
}

func TestAllSevenLanguages(t *testing.T) {
	names := []string{"LIN_REG", "SC_REG", "LIN_LED", "SC_LED", "EC_LED", "WEC_COUNT", "SEC_COUNT"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d languages, want %d", len(all), len(names))
	}
	for i, l := range all {
		if l.Name != names[i] {
			t.Errorf("language %d is %s, want %s (Table 1 order)", i, l.Name, names[i])
		}
		if l.Judge.Cond == 0 {
			t.Errorf("%s has no judge", l.Name)
		}
		if l.Sources == nil {
			t.Errorf("%s has no sources", l.Name)
		}
		if got, err := ByName(l.Name); err != nil || got.Name != l.Name || got.Judge != l.Judge {
			t.Errorf("ByName(%q) = %s, %v; want the table's %s", l.Name, got.Name, err, l.Name)
		}
	}
	for _, name := range []string{"", "lin_reg", "NOPE"} {
		if _, err := ByName(name); err == nil || err.Error() != fmt.Sprintf("unknown language %q", name) {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

func TestRegisterSafety(t *testing.T) {
	lin, sc := LinReg(), SCReg()

	// Write 1, read 1 in real-time order: fine for both.
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	good := b.Word()
	if violated(lin)(good) {
		t.Error("LIN_REG rejects a linearizable word")
	}
	if violated(sc)(good) {
		t.Error("SC_REG rejects a linearizable word")
	}

	// Read 1 before write(1) is even invoked: the first prefix violates
	// both (no write can serialize before the read in that prefix).
	b2 := trace.NewB()
	b2.Op(1, trace.OpRead, nil, trace.Int(1))
	b2.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	bad := b2.Word()
	if !violated(lin)(bad) {
		t.Error("LIN_REG accepts a read from the future")
	}
	if !violated(sc)(bad) {
		t.Error("SC_REG accepts a read from the future")
	}

	// Stale read: read 0 after write(1) completed — not linearizable, but
	// sequentially consistent (the read serializes first).
	b3 := trace.NewB()
	b3.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b3.Op(1, trace.OpRead, nil, trace.Int(0))
	stale := b3.Word()
	if !violated(lin)(stale) {
		t.Error("LIN_REG accepts a stale read")
	}
	if violated(sc)(stale) {
		t.Error("SC_REG rejects a reorderable stale read")
	}
}

func TestLedgerSafety(t *testing.T) {
	lin, sc, ec := LinLed(), SCLed(), ECLed()

	b := trace.NewB()
	b.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
	b.Op(1, trace.OpGet, nil, trace.Seq{"a"})
	good := b.Word()
	for _, l := range []Lang{lin, sc, ec} {
		if violated(l)(good) {
			t.Errorf("%s rejects a valid ledger word", l.Name)
		}
	}

	// Get returns a record never appended: all three reject.
	b2 := trace.NewB()
	b2.Op(1, trace.OpGet, nil, trace.Seq{"ghost"})
	bad := b2.Word()
	for _, l := range []Lang{lin, sc, ec} {
		if !violated(l)(bad) {
			t.Errorf("%s accepts a phantom record", l.Name)
		}
	}

	// Forked gets — [a] and [b] with both appended — violate EC's single
	// permutation clause (and the stronger ones too).
	b3 := trace.NewB()
	b3.Op(0, trace.OpAppend, trace.Rec("a"), trace.Unit{})
	b3.Op(1, trace.OpAppend, trace.Rec("b"), trace.Unit{})
	b3.Op(0, trace.OpGet, nil, trace.Seq{"a"})
	b3.Op(1, trace.OpGet, nil, trace.Seq{"b"})
	forked := b3.Word()
	for _, l := range []Lang{lin, sc, ec} {
		if !violated(l)(forked) {
			t.Errorf("%s accepts forked gets", l.Name)
		}
	}
}

func TestCounterSafety(t *testing.T) {
	wec, sec := WECCount(), SECCount()

	// Reads lag behind other processes' incs: fine for both (weak clauses
	// only bound a process against itself; clause 4 only bounds above).
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(0))
	lag := b.Word()
	if violated(wec)(lag) {
		t.Error("WEC_COUNT rejects a lagging read")
	}
	if violated(sec)(lag) {
		t.Error("SEC_COUNT rejects a lagging read")
	}

	// A process under-counting its own incs: both reject.
	b2 := trace.NewB()
	b2.Op(0, trace.OpInc, nil, trace.Unit{})
	b2.Op(0, trace.OpRead, nil, trace.Int(0))
	own := b2.Word()
	if !violated(wec)(own) {
		t.Error("WEC_COUNT accepts an own-inc undercount")
	}
	if !violated(sec)(own) {
		t.Error("SEC_COUNT accepts an own-inc undercount")
	}

	// Over-read: read exceeds every inc invoked so far — only SEC rejects.
	b3 := trace.NewB()
	b3.Op(0, trace.OpInc, nil, trace.Unit{})
	b3.Op(1, trace.OpRead, nil, trace.Int(2))
	over := b3.Word()
	if violated(wec)(over) {
		t.Error("WEC_COUNT rejects an over-read it cannot forbid")
	}
	if !violated(sec)(over) {
		t.Error("SEC_COUNT accepts an over-read (clause 4)")
	}
}

func TestSourcesLabelledConsistently(t *testing.T) {
	// Finite prefixes of in-language sources must never violate safety;
	// every language needs at least one source per label. The whole-word
	// safety checks are super-linear in the prefix length (the SC search is
	// exponential in the worst case), so -short tests a shorter prefix.
	const procs = 3
	steps := 400
	if testing.Short() {
		steps = 150
	}
	for _, l := range All() {
		ins, outs := 0, 0
		for _, lb := range l.Sources(procs, 1) {
			if lb.In {
				ins++
			} else {
				outs++
			}
			src := lb.New()
			var w trace.Word
			for i := 0; i < steps; i++ {
				s, ok := src.Next()
				if !ok {
					break
				}
				w = append(w, s)
			}
			if len(w) == 0 {
				t.Errorf("%s/%s produced no symbols", l.Name, lb.Name)
				continue
			}
			if lb.In && violated(l)(w) {
				t.Errorf("%s/%s: prefix of an in-language word violates safety", l.Name, lb.Name)
			}
		}
		if ins == 0 || outs == 0 {
			t.Errorf("%s sources: %d in-language, %d out — need both labels", l.Name, ins, outs)
		}
	}
}

func TestSourcesDeterministicInSeed(t *testing.T) {
	for _, l := range All() {
		for _, lb := range l.Sources(3, 5) {
			a, b := lb.New(), lb.New()
			for i := 0; i < 100; i++ {
				sa, oka := a.Next()
				sb, okb := b.Next()
				if oka != okb || (oka && !sa.Equal(sb)) {
					t.Errorf("%s/%s not deterministic at symbol %d", l.Name, lb.Name, i)
					break
				}
			}
		}
	}
}

func TestSourcesWellFormedPerProcess(t *testing.T) {
	// Local words must alternate invocation/response starting with an
	// invocation (Definition 2.1's sequentiality).
	const procs, steps = 3, 600
	for _, l := range All() {
		for _, lb := range l.Sources(procs, 2) {
			src := lb.New()
			var w trace.Word
			for i := 0; i < steps; i++ {
				s, ok := src.Next()
				if !ok {
					break
				}
				w = append(w, s)
			}
			for p := 0; p < procs; p++ {
				local := w.Project(p)
				for k, s := range local {
					want := trace.Inv
					if k%2 == 1 {
						want = trace.Res
					}
					if s.Kind != want {
						t.Errorf("%s/%s: process %d local word breaks alternation at %d", l.Name, lb.Name, p, k)
						break
					}
				}
			}
		}
	}
}

// anyPrefixViolates lifts a per-word violation test to the language
// definitions that quantify over all finite prefixes (Definitions 2.3, 2.5,
// 2.9: "every finite prefix of it is ..."), testing each prefix ending at a
// response symbol and the word itself. It is the reference the one-pass
// safety tests of the non-prefix-closed languages are pinned to.
func anyPrefixViolates(bad func(trace.Word) bool) func(trace.Word) bool {
	return func(w trace.Word) bool {
		for cut := 1; cut <= len(w); cut++ {
			if cut < len(w) && w[cut-1].Kind != trace.Res {
				continue
			}
			if bad(w[:cut]) {
				return true
			}
		}
		return false
	}
}

// TestSCOracleMatchesPerPrefixSafety pins SC_REG's and SC_LED's one-pass
// safety tests to the definition they replace, anyPrefixViolates over
// check.SeqConsistent, on every prefix of every source's word.
func TestSCOracleMatchesPerPrefixSafety(t *testing.T) {
	const procs = 3
	steps := 120
	if testing.Short() {
		steps = 60
	}
	// A read (get) returning a value before its write (append) is even
	// invoked: the whole word is sequentially consistent, the prefix ending
	// at the read is not. The sources rarely produce such a repair.
	repaired := map[string]trace.Word{
		"SC_REG": trace.NewB().Op(0, trace.OpRead, nil, trace.Int(1)).Op(1, trace.OpWrite, trace.Int(1), trace.Unit{}).Word(),
		"SC_LED": trace.NewB().Op(0, trace.OpGet, nil, trace.Seq{trace.Rec("r")}).Op(1, trace.OpAppend, trace.Rec("r"), trace.Unit{}).Word(),
	}
	for _, l := range []Lang{SCReg(), SCLed()} {
		perPrefix := anyPrefixViolates(func(w trace.Word) bool { return !check.SeqConsistent(l.Object, w) })
		w := repaired[l.Name]
		if !check.SeqConsistent(l.Object, w) || !perPrefix(w) {
			t.Fatalf("%s: %v is not a repaired word", l.Name, w)
		}
		if !violated(l)(w) {
			t.Errorf("%s: the judge misses the violating prefix of %v", l.Name, w)
		}
		violating := 0
		for seed := int64(1); seed <= 3; seed++ {
			for _, lb := range l.Sources(procs, seed) {
				src := lb.New()
				var w trace.Word
				for i := 0; i < steps; i++ {
					s, ok := src.Next()
					if !ok {
						break
					}
					w = append(w, s)
				}
				before := false // anyPrefixViolates on the longest response-ended proper prefix
				for k := 1; k <= len(w); k++ {
					p := w[:k]
					// anyPrefixViolates(p) is before || !SeqConsistent(p);
					// the quadratic lift itself is sampled.
					want := before || !check.SeqConsistent(l.Object, p)
					if k%16 == 0 || k == len(w) {
						if ref := perPrefix(p); ref != want {
							t.Fatalf("%s/%s seed %d prefix %d: anyPrefixViolates = %v, test bookkeeping says %v", l.Name, lb.Name, seed, k, ref, want)
						}
					}
					if got := violated(l)(p); got != want {
						t.Fatalf("%s/%s seed %d prefix %d: judge violated = %v, anyPrefixViolates(SeqConsistent) = %v", l.Name, lb.Name, seed, k, got, want)
					}
					if w[k-1].Kind == trace.Res {
						before = want
					}
				}
				if before {
					violating++
					if lb.In {
						t.Errorf("%s/%s seed %d: a prefix of an in-language word is not sequentially consistent", l.Name, lb.Name, seed)
					}
				}
			}
		}
		if violating == 0 {
			t.Errorf("%s: no source violates sequential consistency; the differential never sees a violation", l.Name)
		}
	}
}

// TestECLedOracleMatchesPerPrefixSafety pins EC_LED's one-pass safety test
// to the definition it replaces, anyPrefixViolates over clause (1) judged on
// a whole word, on every prefix of every EC_LED source's word; a checker
// queried after every response must track it too. A fresh check.ECLedger fed
// a whole word and asked once judges it, as package check's tests pin
// against a batch reference.
func TestECLedOracleMatchesPerPrefixSafety(t *testing.T) {
	const procs = 3
	steps := 300
	if testing.Short() {
		steps = 120
	}
	l := ECLed()
	whole := func(w trace.Word) bool {
		c := check.NewECLedger()
		for _, s := range w {
			c.Append(s)
		}
		return c.OK()
	}
	perPrefix := anyPrefixViolates(func(w trace.Word) bool { return !whole(w) })
	violating := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, lb := range l.Sources(procs, seed) {
			src := lb.New()
			var w trace.Word
			for i := 0; i < steps; i++ {
				s, ok := src.Next()
				if !ok {
					break
				}
				w = append(w, s)
			}
			chk := check.NewECLedger()
			before := false // anyPrefixViolates on the longest response-ended proper prefix
			for k := 1; k <= len(w); k++ {
				chk.Append(w[k-1])
				p := w[:k]
				// anyPrefixViolates(p) is before || !whole(p): it tests every
				// response-ended proper prefix and p itself. Running the
				// quadratic lift itself on every prefix would be cubic, so
				// it is sampled.
				want := before || !whole(p)
				if k%16 == 0 || k == len(w) {
					if ref := perPrefix(p); ref != want {
						t.Fatalf("%s seed %d prefix %d: anyPrefixViolates = %v, test bookkeeping says %v", lb.Name, seed, k, ref, want)
					}
				}
				if got := violated(l)(p); got != want {
					t.Fatalf("%s seed %d prefix %d: judge violated = %v, anyPrefixViolates = %v", lb.Name, seed, k, got, want)
				}
				if w[k-1].Kind == trace.Res {
					if chk.OK() == want {
						t.Fatalf("%s seed %d prefix %d: streamed OK = %v, anyPrefixViolates = %v", lb.Name, seed, k, chk.OK(), want)
					}
					before = want
				}
			}
			if before {
				violating++
				if lb.In {
					t.Errorf("%s seed %d: a prefix of an in-language word violates clause (1)", lb.Name, seed)
				}
			}
		}
	}
	if violating == 0 {
		t.Error("no source violates clause (1); the differential never sees a NO")
	}
}

// TestSCJudgeAcceptsStackLockHistory runs the SC judge on the correct lock
// stack's 64-symbol history, whose per-prefix search cost package check pins:
// a whole-word check of it takes seconds, the judge's forward pass a few
// hundred search nodes.
func TestSCJudgeAcceptsStackLockHistory(t *testing.T) {
	f, err := os.Open("../check/testdata/stack-lock-sc.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*check.Pool{nil, check.NewPool()} {
		if v := (Judge{Cond: SC, Object: trace.Stack()}).Violation(tr.Word, pool); v != nil {
			t.Errorf("SC judge rejects the lock stack's history at prefix %d", v.Prefix)
		}
	}
}

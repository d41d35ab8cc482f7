package lang

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

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
		if l.SafetyViolated == nil {
			t.Errorf("%s has no safety test", l.Name)
		}
		if l.Sources == nil {
			t.Errorf("%s has no sources", l.Name)
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
	if lin.SafetyViolated(good) {
		t.Error("LIN_REG rejects a linearizable word")
	}
	if sc.SafetyViolated(good) {
		t.Error("SC_REG rejects a linearizable word")
	}

	// Read 1 before write(1) is even invoked: the first prefix violates
	// both (no write can serialize before the read in that prefix).
	b2 := trace.NewB()
	b2.Op(1, trace.OpRead, nil, trace.Int(1))
	b2.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	bad := b2.Word()
	if !lin.SafetyViolated(bad) {
		t.Error("LIN_REG accepts a read from the future")
	}
	if !sc.SafetyViolated(bad) {
		t.Error("SC_REG accepts a read from the future")
	}

	// Stale read: read 0 after write(1) completed — not linearizable, but
	// sequentially consistent (the read serializes first).
	b3 := trace.NewB()
	b3.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b3.Op(1, trace.OpRead, nil, trace.Int(0))
	stale := b3.Word()
	if !lin.SafetyViolated(stale) {
		t.Error("LIN_REG accepts a stale read")
	}
	if sc.SafetyViolated(stale) {
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
		if l.SafetyViolated(good) {
			t.Errorf("%s rejects a valid ledger word", l.Name)
		}
	}

	// Get returns a record never appended: all three reject.
	b2 := trace.NewB()
	b2.Op(1, trace.OpGet, nil, trace.Seq{"ghost"})
	bad := b2.Word()
	for _, l := range []Lang{lin, sc, ec} {
		if !l.SafetyViolated(bad) {
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
		if !l.SafetyViolated(forked) {
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
	if wec.SafetyViolated(lag) {
		t.Error("WEC_COUNT rejects a lagging read")
	}
	if sec.SafetyViolated(lag) {
		t.Error("SEC_COUNT rejects a lagging read")
	}

	// A process under-counting its own incs: both reject.
	b2 := trace.NewB()
	b2.Op(0, trace.OpInc, nil, trace.Unit{})
	b2.Op(0, trace.OpRead, nil, trace.Int(0))
	own := b2.Word()
	if !wec.SafetyViolated(own) {
		t.Error("WEC_COUNT accepts an own-inc undercount")
	}
	if !sec.SafetyViolated(own) {
		t.Error("SEC_COUNT accepts an own-inc undercount")
	}

	// Over-read: read exceeds every inc invoked so far — only SEC rejects.
	b3 := trace.NewB()
	b3.Op(0, trace.OpInc, nil, trace.Unit{})
	b3.Op(1, trace.OpRead, nil, trace.Int(2))
	over := b3.Word()
	if wec.SafetyViolated(over) {
		t.Error("WEC_COUNT rejects an over-read it cannot forbid")
	}
	if !sec.SafetyViolated(over) {
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
			if lb.In && l.SafetyViolated(w) {
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

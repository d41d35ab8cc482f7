package experiment

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// wordOf builds the four-symbol round used by small driver tests.
func smallWord() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

func TestScheduledRunCanonical(t *testing.T) {
	w := smallWord()
	m := monitor.Constant(monitor.Yes)
	res, err := ScheduledRun(m, 2, w, Canonical(w, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.History.Equal(w) {
		t.Errorf("canonical run exhibited %v, want %v", res.History, w)
	}
	for p := 0; p < 2; p++ {
		if len(res.Verdicts[p]) != 1 {
			t.Errorf("process %d reported %d times, want 1", p, len(res.Verdicts[p]))
		}
	}
}

func TestScheduledRunDetectsBadSchedule(t *testing.T) {
	w := smallWord()
	// An Emit expecting the wrong process must fail loudly.
	sch := Schedule{{Block, 0}, {Emit, 1}}
	if _, err := ScheduledRun(monitor.Constant(monitor.Yes), 2, w, sch); err == nil {
		t.Error("expected schedule error for mismatched Emit owner")
	}
	// Emitting past the word's end must fail loudly.
	sch = Canonical(w, 2)
	sch = append(sch, Item{Emit, 0})
	if _, err := ScheduledRun(monitor.Constant(monitor.Yes), 2, w, sch); err == nil {
		t.Error("expected schedule error for emitting past the word")
	}
}

func TestIndistinguishableReflexive(t *testing.T) {
	w := smallWord()
	m := monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAtomic)
	r1, err := ScheduledRun(m, 2, w, Canonical(w, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ScheduledRun(m, 2, w, Canonical(w, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ok, p := Indistinguishable(r1, r2); !ok {
		t.Errorf("identical runs distinguishable at process %d", p)
	}
}

func TestLemma51AgainstMonitors(t *testing.T) {
	// The swap defeats every monitor: order-free, consensus-powered, the
	// WEC monitor (wrong object, still a monitor), and a constant.
	monitors := []monitor.Monitor{
		monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAtomic),
		monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAADGMS),
		monitor.NewConsensusOrder(trace.Register(), adversary.ArrayAtomic),
		monitor.Constant(monitor.Yes),
	}
	l := Lemma51{Rounds: 6}
	for _, m := range monitors {
		if err := l.Verify(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestLemma51WordsMembership(t *testing.T) {
	l := Lemma51{Rounds: 4}
	wE, wF := l.Words()
	if lang.LinReg().Judge.Violation(wE, nil) != nil {
		t.Error("x(E) should be linearizable")
	}
	if lang.LinReg().Judge.Violation(wF, nil) == nil {
		t.Error("x(F) should violate linearizability")
	}
	if lang.SCReg().Judge.Violation(wF, nil) == nil {
		t.Error("x(F) should violate sequential consistency prefix-wise")
	}
}

func TestWalkRegisterWitness(t *testing.T) {
	// Drag the Lemma 5.1 E-word's first round to its F-form via the walk.
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	alpha := b.Word()
	b2 := trace.NewB()
	b2.Op(1, trace.OpRead, nil, trace.Int(1))
	b2.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	target := b2.Word()

	m := monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAtomic)
	walk, err := RunWalk(m, 2, alpha, target)
	if err != nil {
		t.Fatalf("walk failed: %v", err)
	}
	if len(walk.Steps) == 0 {
		t.Fatal("walk has no steps")
	}
	if lang.LinReg().Judge.Violation(alpha, nil) != nil {
		t.Error("alpha should be in the language")
	}
	if lang.LinReg().Judge.Violation(target, nil) == nil {
		t.Error("target should violate the language")
	}
}

func TestWalkRejectsNonShuffle(t *testing.T) {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(0, trace.OpWrite, trace.Int(2), trace.Unit{})
	alpha := b.Word()
	// Reversing two operations of the same process is not a projection-
	// preserving shuffle.
	target := trace.Word{alpha[2], alpha[3], alpha[0], alpha[1]}
	if _, err := RunWalk(monitor.Constant(monitor.Yes), 1, alpha, target); err == nil {
		t.Error("expected rejection of a same-process reorder")
	}
}

func TestPrefixAttackWEC(t *testing.T) {
	attack := counterAttack(DefaultParams())
	res, err := attack.Run(monitor.NewWEC(adversary.ArrayAtomic))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(lang.WECCount().Judge); err != nil {
		t.Error(err)
	}
	if res.Cut <= 0 || res.Cut >= len(attack.Bad) {
		t.Errorf("cut %d outside the bad word (len %d)", res.Cut, len(attack.Bad))
	}
}

func TestPrefixAttackTimedSEC(t *testing.T) {
	attack := counterAttack(DefaultParams())
	res, err := attack.RunTimed(func(tau *adversary.Timed) monitor.Monitor {
		return monitor.NewSEC(tau, adversary.ArrayAtomic)
	}, adversary.ArrayAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(lang.SECCount().Judge); err != nil {
		t.Error(err)
	}
	if !res.TightSketch {
		t.Error("canonical timed run should be tight (x = x~)")
	}
}

// twoRounds builds a one-process run with two reported rounds, the first
// response carrying id and view.
func twoRounds(id trace.OpID, view []int) *monitor.Result {
	v := trace.NewView(view)
	read := trace.NewInv(0, trace.OpRead, nil)
	resp := trace.NewRes(0, trace.OpRead, trace.Int(0))
	return &monitor.Result{
		Invs:      [][]trace.Symbol{{read, read}},
		Responses: [][]trace.Response{{{Sym: resp, ID: id, View: &v}, {Sym: resp, ID: trace.OpID{Proc: 0, Idx: 1}}}},
		Verdicts:  [][]monitor.Verdict{{monitor.Yes, monitor.No}},
	}
}

func TestPrefixesMatchComparesIDsAndViews(t *testing.T) {
	// Lemma 6.2's indistinguishability needs the whole observation up to
	// the NO: a response that differs only in its view or its operation id
	// makes the two runs distinguishable to the process.
	base := twoRounds(trace.OpID{Proc: 0, Idx: 0}, []int{1, 0})
	if !prefixesMatch(base, twoRounds(trace.OpID{Proc: 0, Idx: 0}, []int{1, 0}), 0, 1) {
		t.Fatal("identical runs compare unequal")
	}
	if prefixesMatch(base, twoRounds(trace.OpID{Proc: 0, Idx: 0}, []int{1, 1}), 0, 1) {
		t.Error("runs differing in one response's view compare equal")
	}
	if prefixesMatch(base, twoRounds(trace.OpID{Proc: 0, Idx: 7}, []int{1, 0}), 0, 1) {
		t.Error("runs differing in one response's OpID compare equal")
	}
	if prefixesMatch(base, base, 0, 2) {
		t.Error("a report index past the run compares equal")
	}
}

func TestLemma65Attack(t *testing.T) {
	l := Lemma65{N: 2, Stages: 3}
	err := l.Verify(func(*adversary.Timed) monitor.Monitor {
		return monitor.NewECLed(adversary.ArrayAtomic)
	}, adversary.ArrayAtomic)
	if err != nil {
		t.Error(err)
	}
}

func TestLemma65WordInLanguage(t *testing.T) {
	l := Lemma65{N: 2, Stages: 2}
	w, phases := l.Build()
	if lang.ECLed().Judge.Violation(w, nil) != nil {
		t.Error("staged word violates EC ordering safety")
	}
	if !check.ECLedgerConverges(w) {
		t.Error("staged word does not converge")
	}
	if len(phases) != 4 {
		t.Errorf("expected 4 phases, got %d", len(phases))
	}
}

func TestTable1AllCellsReproduce(t *testing.T) {
	p := DefaultParams()
	if testing.Short() {
		p = ShortParams()
	}
	rows := Table1(p)
	if len(rows) != 7 {
		t.Fatalf("expected 7 rows, got %d", len(rows))
	}
	expected := map[string][4]bool{
		"LIN_REG":   {false, false, true, true},
		"SC_REG":    {false, false, true, true},
		"LIN_LED":   {false, false, true, true},
		"SC_LED":    {false, false, true, true},
		"EC_LED":    {false, false, false, false},
		"WEC_COUNT": {false, true, false, true},
		"SEC_COUNT": {false, false, false, true},
	}
	for _, row := range rows {
		want, ok := expected[row.Lang]
		if !ok {
			t.Errorf("unexpected row %s", row.Lang)
			continue
		}
		for i, cell := range row.Cells {
			if cell.Expected != want[i] {
				t.Errorf("%s %s: harness expects %v, paper says %v", row.Lang, cell.Class, cell.Expected, want[i])
			}
			if cell.Err != nil {
				t.Errorf("%s %s: reproduction failed: %v", row.Lang, cell.Class, cell.Err)
			}
		}
	}
	t.Logf("\n%s", Render(rows))
}

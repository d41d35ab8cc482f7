package core

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/lang"
)

func TestAppendixAWitnessNotRTO(t *testing.T) {
	// The Appendix A word defeats all three ledger languages.
	for _, n := range []int{2, 3, 4} {
		alpha := AppendixAWitness(n)
		for _, l := range []lang.Lang{lang.LinLed(), lang.SCLed(), lang.ECLed()} {
			wit := FindRTOWitness(l.Judge, alpha, n)
			if wit == nil {
				t.Errorf("n=%d: no RTO witness for %s on the Appendix A word", n, l.Name)
				continue
			}
			if l.Judge.Violation(wit.Alpha, nil) != nil {
				t.Errorf("n=%d %s: witness alpha itself violates safety", n, l.Name)
			}
			if l.Judge.Violation(wit.Shuffled, nil) == nil {
				t.Errorf("n=%d %s: witness shuffle does not violate safety", n, l.Name)
			}
			if !inShuffle(wit.Shuffled, procParts(wit.Alpha, n)) {
				t.Errorf("n=%d %s: witness shuffle is not a shuffle of alpha's projections", n, l.Name)
			}
		}
	}
}

func TestRegisterWitnessNotRTO(t *testing.T) {
	// The Lemma 5.1 round: write(1) then read=1 — deferring the write past
	// the read breaks both register languages.
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	alpha := b.Word()
	for _, l := range []lang.Lang{lang.LinReg(), lang.SCReg()} {
		if FindRTOWitness(l.Judge, alpha, 2) == nil {
			t.Errorf("no RTO witness for %s", l.Name)
		}
	}
}

func TestSECWitnessNotRTO(t *testing.T) {
	// Clause (4): inc strictly before read=1; the shuffle deferring the inc
	// makes the read an over-read.
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	alpha := b.Word()
	sec := lang.SECCount()
	if FindRTOWitness(sec.Judge, alpha, 2) == nil {
		t.Error("no RTO witness for SEC_COUNT on the clause-4 word")
	}
}

func TestWECShuffleClosed(t *testing.T) {
	// WEC_COUNT is real-time oblivious: its safety clauses only relate
	// same-process events, so every shuffle of a safety-consistent prefix
	// stays consistent. Check on several prefixes.
	wec := lang.WECCount()
	words := []trace.Word{}
	{
		b := trace.NewB()
		b.Op(0, trace.OpInc, nil, trace.Unit{})
		b.Op(1, trace.OpRead, nil, trace.Int(0))
		b.Op(0, trace.OpRead, nil, trace.Int(1))
		words = append(words, b.Word())
	}
	{
		b := trace.NewB()
		b.Op(0, trace.OpInc, nil, trace.Unit{})
		b.Op(1, trace.OpInc, nil, trace.Unit{})
		b.Op(2, trace.OpRead, nil, trace.Int(2))
		b.Op(2, trace.OpRead, nil, trace.Int(2))
		words = append(words, b.Word())
	}
	for i, alpha := range words {
		n := alpha.Procs()
		if !ShuffleClosed(wec.Judge, alpha, n) {
			t.Errorf("word %d: WEC_COUNT not shuffle-closed — contradicts its RTO classification", i)
		}
	}
}

func TestFindRTOWitnessSkipsViolatingAlpha(t *testing.T) {
	// A word that itself violates safety passes no judgement.
	b := trace.NewB()
	b.Op(0, trace.OpRead, nil, trace.Int(7)) // read of a never-written value
	alpha := b.Word()
	lr := lang.LinReg()
	if lr.Judge.Violation(alpha, nil) == nil {
		t.Fatal("setup: alpha should violate safety")
	}
	if FindRTOWitness(lr.Judge, alpha, 1) != nil {
		t.Error("witness reported for an already-violating alpha")
	}
}

func TestLangRTOClassificationMatchesWitnessSearch(t *testing.T) {
	// The static classification on each language must agree with what the
	// witness search finds on the canonical witnesses.
	cases := []struct {
		l     lang.Lang
		alpha trace.Word
	}{
		{lang.LinReg(), regWitness()},
		{lang.SCReg(), regWitness()},
		{lang.LinLed(), AppendixAWitness(3)},
		{lang.SCLed(), AppendixAWitness(3)},
		{lang.ECLed(), AppendixAWitness(3)},
		{lang.SECCount(), secWitnessWord()},
	}
	for _, c := range cases {
		if c.l.RealTimeOblivious {
			t.Errorf("%s claims real-time obliviousness but has a known witness", c.l.Name)
			continue
		}
		n := c.alpha.Procs()
		if FindRTOWitness(c.l.Judge, c.alpha, n) == nil {
			t.Errorf("%s: classification says non-RTO but no witness found on its canonical word", c.l.Name)
		}
	}
	if !lang.WECCount().RealTimeOblivious {
		t.Error("WEC_COUNT should be classified real-time oblivious")
	}
}

func regWitness() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

func secWitnessWord() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

// ShuffleClosed reports whether every shuffle of alpha's projections passes
// the safety test — the bounded empirical content of real-time obliviousness
// for one prefix. Languages classified real-time oblivious (WEC_COUNT) must
// be shuffle-closed on every safety-consistent prefix.
func ShuffleClosed(judge lang.Judge, alpha trace.Word, n int) bool {
	return FindRTOWitness(judge, alpha, n) == nil
}

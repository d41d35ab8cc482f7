package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/lang"
)

// fakeStats is a hand-built Stats for predicate tests: verdict tails are
// encoded as per-process NO counts plus a tail flag.
type fakeStats struct {
	noCounts []int
	noInTail []bool
}

func (f fakeStats) Procs() int             { return len(f.noCounts) }
func (f fakeStats) NOCount(p int) int      { return f.noCounts[p] }
func (f fakeStats) NOInTail(p, _ int) bool { return f.noInTail[p] }

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		SD: "SD", WAD: "WAD", WOD: "WOD", WD: "WD", PSD: "PSD", PWD: "PWD",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown class renders %q", got)
	}
}

// shownEval evaluates class c on runs whose exhibited word violates
// WEC_COUNT's safety condition, so a failed Out-side predicate stands.
func shownEval(c Class) Eval {
	return Eval{Class: c, Window: 2, Judge: lang.WECCount().Judge, Word: ownReadBelow()}
}

func TestCheckSD(t *testing.T) {
	ev := shownEval(SD)
	// In language, no NOs: ok.
	if err := ev.Check(fakeStats{[]int{0, 0}, []bool{false, false}}, true); err != nil {
		t.Errorf("clean accept rejected: %v", err)
	}
	// In language, one NO anywhere: violation.
	if err := ev.Check(fakeStats{[]int{1, 0}, []bool{false, false}}, true); err == nil {
		t.Error("false negative accepted under SD")
	}
	// Out of language, no NOs at all: violation.
	if err := ev.Check(fakeStats{[]int{0, 0}, []bool{false, false}}, false); err == nil {
		t.Error("missed detection accepted under SD")
	}
	// Out of language, some NO: ok.
	if err := ev.Check(fakeStats{[]int{0, 3}, []bool{false, true}}, false); err != nil {
		t.Errorf("detection rejected: %v", err)
	}
}

func TestCheckWDAndHalves(t *testing.T) {
	wd := shownEval(WD)
	// In language: transient NOs fine, tail NOs fatal.
	if err := wd.Check(fakeStats{[]int{5, 5}, []bool{false, false}}, true); err != nil {
		t.Errorf("transient NOs rejected: %v", err)
	}
	if err := wd.Check(fakeStats{[]int{5, 5}, []bool{false, true}}, true); err == nil {
		t.Error("persistent NO on in-language word accepted under WD")
	}
	// Out of language: every process must keep NOing.
	if err := wd.Check(fakeStats{[]int{5, 5}, []bool{true, true}}, false); err != nil {
		t.Errorf("persistent rejection rejected: %v", err)
	}
	if err := wd.Check(fakeStats{[]int{5, 5}, []bool{true, false}}, false); err == nil {
		t.Error("a process that stopped NOing accepted under WD")
	}

	// WAD: out-of-language needs only one persistent NOer.
	wad := shownEval(WAD)
	if err := wad.Check(fakeStats{[]int{5, 5}, []bool{true, false}}, false); err != nil {
		t.Errorf("WAD rejected single persistent NOer: %v", err)
	}
	// WOD: in-language needs only one process that quiesced.
	wod := shownEval(WOD)
	if err := wod.Check(fakeStats{[]int{5, 5}, []bool{true, false}}, true); err != nil {
		t.Errorf("WOD rejected single quiesced process: %v", err)
	}
	if err := wod.Check(fakeStats{[]int{5, 5}, []bool{true, true}}, true); err == nil {
		t.Error("WOD accepted all-persistent NOs on in-language word")
	}
}

// sketches returns an Eval.Sketch that yields full for the whole sketch and
// covered for the verdict-covered one.
func sketches(full, covered trace.Word) func(bool) (trace.Word, error) {
	return func(c bool) (trace.Word, error) {
		if c {
			return covered, nil
		}
		return full, nil
	}
}

// Register words: clean writes 1 and reads it; bad reads a value never
// written.
func cleanReg() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

func badReg() trace.Word {
	b := trace.NewB()
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

// Counter words after one inc by process 0: process 1 reads r. r = 1
// converges; r = 0 is safe (process 1 saw no inc of its own) but never
// converges. ownReadBelow has process 0 read below its own inc, a safety
// violation.
func counterRead(r int) trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(r))
	return b.Word()
}

func ownReadBelow() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(0, trace.OpRead, nil, trace.Int(0))
	return b.Word()
}

func TestCheckPSD(t *testing.T) {
	// In language with NOs: needs a justifying sketch.
	reg := lang.LinReg().Judge
	justified := Eval{Class: PSD, Window: 2, Judge: reg, Sketch: sketches(badReg(), badReg())}
	unjustified := Eval{Class: PSD, Window: 2, Judge: reg, Sketch: sketches(cleanReg(), cleanReg())}
	st := fakeStats{[]int{1, 0}, []bool{false, false}}
	if err := justified.Check(st, true); err != nil {
		t.Errorf("justified false negative rejected: %v", err)
	}
	if err := unjustified.Check(st, true); err == nil {
		t.Error("unjustified false negative accepted")
	}
	// Without a sketch check the evaluation must refuse.
	bare := Eval{Class: PSD, Window: 2, Judge: reg}
	if err := bare.Check(st, true); err == nil {
		t.Error("PSD evaluated without a sketch check")
	}
	// Clean accept needs no sketch.
	if err := bare.Check(fakeStats{[]int{0, 0}, []bool{false, false}}, true); err != nil {
		t.Errorf("clean accept rejected: %v", err)
	}
}

func TestCheckPWD(t *testing.T) {
	reg := lang.LinReg().Judge
	justified := Eval{Class: PWD, Window: 2, Judge: reg, Sketch: sketches(badReg(), cleanReg())}
	unjustified := Eval{Class: PWD, Window: 2, Judge: reg, Sketch: sketches(cleanReg(), badReg())}
	persistent := fakeStats{[]int{9, 9}, []bool{true, true}}
	if err := justified.Check(persistent, true); err != nil {
		t.Errorf("justified persistent NOs rejected: %v", err)
	}
	if err := unjustified.Check(persistent, true); err == nil {
		t.Error("unjustified persistent NOs accepted")
	}
}

func TestCheckOutSideJudgesExhibitedWord(t *testing.T) {
	// An out-of-language run's verdicts are judged against what x(E) shows.
	// The stats fail each class's Out-side predicate: under WD and PWD
	// process 0 stopped reporting NO, under PSD no process reported NO.
	reg, wec, sec := lang.LinReg().Judge, lang.WECCount().Judge, lang.SECCount().Judge
	quiet := map[Class]fakeStats{
		WD:  {[]int{5, 5}, []bool{false, true}},
		PWD: {[]int{5, 5}, []bool{false, true}},
		PSD: {[]int{0, 0}, []bool{false, false}},
	}
	const (
		pass      = "pass"
		violated  = "violated"
		undecided = "undecided"
	)
	cases := []struct {
		name   string
		class  Class
		judge  lang.Judge
		word   trace.Word
		sketch func(bool) (trace.Word, error)
		want   string
	}{
		{"WD nothing shown", WD, wec, counterRead(1), nil, undecided},
		{"PSD nothing shown", PSD, reg, cleanReg(), sketches(badReg(), badReg()), undecided},
		{"PWD nothing shown", PWD, sec, counterRead(1), sketches(ownReadBelow(), ownReadBelow()), undecided},
		{"WD safety shown", WD, wec, ownReadBelow(), nil, violated},
		{"PSD safety shown, sketch violates", PSD, reg, badReg(), sketches(badReg(), badReg()), violated},
		{"PWD safety shown, sketch violates", PWD, reg, badReg(), sketches(badReg(), badReg()), violated},
		{"PSD safety shown, clean sketch", PSD, reg, badReg(), sketches(cleanReg(), cleanReg()), pass},
		{"PWD safety shown, clean sketch", PWD, reg, badReg(), sketches(cleanReg(), cleanReg()), pass},
		// PSD judges the verdict-covered sketch, PWD the full one.
		{"PSD covered sketch clean", PSD, reg, badReg(), sketches(badReg(), cleanReg()), pass},
		{"PWD full sketch violates", PWD, reg, badReg(), sketches(badReg(), cleanReg()), violated},
		{"PSD covered sketch violates", PSD, reg, badReg(), sketches(cleanReg(), badReg()), violated},
		{"PWD full sketch clean", PWD, reg, badReg(), sketches(cleanReg(), badReg()), pass},
		// Liveness needs no real-time order: never excused.
		{"WD liveness shown", WD, wec, counterRead(0), nil, violated},
		{"PSD liveness shown, clean sketch", PSD, wec, counterRead(0), sketches(cleanReg(), cleanReg()), violated},
		{"PWD liveness shown, clean sketch", PWD, sec, counterRead(0), sketches(counterRead(1), counterRead(1)), violated},
	}
	for _, c := range cases {
		ev := Eval{Class: c.class, Window: 2, Judge: c.judge, Word: c.word, Sketch: c.sketch}
		err := ev.Check(quiet[c.class], false)
		var short *ShortRunError
		got := pass
		switch {
		case errors.As(err, &short):
			got = undecided
			if short.Class != c.class || short.Len != len(c.word) {
				t.Errorf("%s: short-run error %+v, want class %s and length %d", c.name, *short, c.class, len(c.word))
			}
			if strings.Contains(err.Error(), "violated") {
				t.Errorf("%s: short-run error reads as a failed predicate: %v", c.name, err)
			}
		case err != nil:
			got = violated
			if !strings.Contains(err.Error(), c.class.String()+" violated") {
				t.Errorf("%s: error %q names no failed %s predicate", c.name, err, c.class)
			}
		}
		if got != c.want {
			t.Errorf("%s: got %s (%v), want %s", c.name, got, err, c.want)
		}
		// Verdicts that meet the Out-side predicate pass whatever x(E) shows.
		persistent := fakeStats{[]int{5, 5}, []bool{true, true}}
		if err := ev.Check(persistent, false); err != nil {
			t.Errorf("%s: persistent NOs rejected: %v", c.name, err)
		}
	}
	// A predictive class with no sketch cannot weigh the excuse.
	ev := Eval{Class: PSD, Judge: reg, Word: badReg()}
	if err := ev.Check(quiet[PSD], false); err == nil || !strings.Contains(err.Error(), "requires a sketch") {
		t.Errorf("PSD without a sketch: got %v", err)
	}
}

func TestCheckUnknownClass(t *testing.T) {
	ev := Eval{Class: Class(42)}
	if err := ev.Check(fakeStats{[]int{0}, []bool{false}}, true); err == nil {
		t.Error("unknown class accepted")
	}
}

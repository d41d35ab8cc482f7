package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens")

func runMon(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeTrace writes a minimal labelled trace and returns its path.
func writeTrace(t *testing.T, langName string, member bool, w trace.Word) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw := trace.NewWriter(f)
	if err := tw.WriteMeta(trace.Meta{N: 2, Lang: langName, Member: &member, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteWord(w); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func goodCounterWord() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

func TestUsageWithoutArgs(t *testing.T) {
	code, _, errOut := runMon()
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Errorf("missing usage line: %s", errOut)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := runMon("-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runMon("-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errOut := runMon("nonexistent.jsonl")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "open:") {
		t.Errorf("missing open diagnostic: %s", errOut)
	}
}

// TestMalformedTraceRejected feeds a trace whose first symbol is a response:
// the judges assume a well-formed word, so drvmon must report the defect and
// exit 1 before judging.
func TestMalformedTraceRejected(t *testing.T) {
	w := trace.Word{trace.NewRes(0, trace.OpRead, trace.Int(0))}
	code, out, errOut := runMon(writeTrace(t, "LIN_REG", true, w))
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "not well-formed") {
		t.Errorf("missing well-formedness diagnostic: %s", errOut)
	}
	if out != "" {
		t.Errorf("judged a malformed trace:\n%s", out)
	}
}

// TestProcessOutOfRangeRejected feeds n: 2 traces whose symbols name
// process -1 or 2: the trace's alphabet has processes 0 and 1 only, so
// drvmon must name the stray process and exit 1 before judging.
func TestProcessOutOfRangeRejected(t *testing.T) {
	for _, p := range []int{-1, 2} {
		w := trace.NewB().Op(0, trace.OpInc, nil, trace.Unit{}).Op(p, trace.OpRead, nil, trace.Int(1)).Word()
		code, out, errOut := runMon(writeTrace(t, "WEC_COUNT", true, w))
		if code != 1 {
			t.Errorf("process %d: exit %d, want 1", p, code)
		}
		if want := fmt.Sprintf("history mentions process %d", p); !strings.Contains(errOut, want) {
			t.Errorf("process %d: stderr lacks %q: %s", p, want, errOut)
		}
		if out != "" {
			t.Errorf("process %d: judged the trace:\n%s", p, out)
		}
	}
}

func TestChecksConsistentTrace(t *testing.T) {
	path := writeTrace(t, "WEC_COUNT", true, goodCounterWord())
	code, out, errOut := runMon(path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"language WEC_COUNT", "violated=false", "ground truth", "in-language=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestDetectsMismatch(t *testing.T) {
	// An in-language label on a word that violates WEC clause (1) — a
	// process reading less than its own preceding incs — must be reported
	// as a mismatch.
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(0, trace.OpRead, nil, trace.Int(0))
	path := writeTrace(t, "WEC_COUNT", true, b.Word())
	code, out, _ := runMon(path)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "MISMATCH") {
		t.Errorf("missing MISMATCH line:\n%s", out)
	}
}

func TestLangOverride(t *testing.T) {
	path := writeTrace(t, "", true, goodCounterWord())
	code, _, errOut := runMon(path)
	if code != 2 {
		t.Errorf("trace without language exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "pass -lang") {
		t.Errorf("missing -lang hint: %s", errOut)
	}
	code, out, errOut := runMon("-lang", "WEC_COUNT", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "language WEC_COUNT") {
		t.Errorf("override not applied:\n%s", out)
	}
	if code, _, _ := runMon("-lang", "NOPE", path); code != 2 {
		t.Errorf("unknown language exited %d, want 2", code)
	}
}

// staleReadWord is sequentially consistent but not linearizable: process 1
// reads the initial 0 after process 0's write of 1 has completed.
func staleReadWord() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpWrite, trace.Int(1), trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(0))
	return b.Word()
}

func TestOtherLangOverSameObjectNotComparedWithLabel(t *testing.T) {
	// The label says the word is in SC_REG. LIN_REG's violation is real and
	// is reported, but the label says nothing about LIN_REG.
	path := writeTrace(t, "SC_REG", true, staleReadWord())
	code, out, errOut := runMon("-lang", "LIN_REG", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s%s", code, out, errOut)
	}
	for _, want := range []string{"language LIN_REG", "safety clauses: violated=true", "LIN_REG safety: violated at prefix 4",
		"SC_REG safety: ok", "ground truth (ω-word) labels SC_REG, not LIN_REG: not compared"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("LIN_REG's verdict was compared with SC_REG's label:\n%s", out)
	}
	// The trace's own language is still compared with its label.
	code, out, _ = runMon("-lang", "SC_REG", path)
	if code != 0 || !strings.Contains(out, "in-language=true") {
		t.Errorf("-lang SC_REG: exit %d:\n%s", code, out)
	}
}

func TestLangOverOtherObjectRejected(t *testing.T) {
	// A counter judge would read the register's reads as counter reads.
	path := writeTrace(t, "SC_REG", true, staleReadWord())
	code, out, errOut := runMon("-lang", "WEC_COUNT", path)
	if code != 2 {
		t.Errorf("exit %d, want 2:\n%s", code, out)
	}
	if want := "-lang WEC_COUNT judges counter histories, but the trace's language SC_REG is over a register\n"; errOut != want {
		t.Errorf("stderr %q, want %q", errOut, want)
	}
	if out != "" {
		t.Errorf("judged the trace:\n%s", out)
	}
}

// TestGoldenStdout pins drvmon's full report on one register, one ledger and
// one counter trace (recorded with drvtrace, the command in each golden's
// name: -lang SC_REG -source stale-reads -n 2 -steps 60, -lang EC_LED -source
// forked -n 2 -steps 80, -lang SEC_COUNT -source over-read -n 2 -steps 80):
// one line per judge over the trace language's object, then the language's
// convergence diagnostic where it has one.
func TestGoldenStdout(t *testing.T) {
	for _, name := range []string{"register", "ledger", "counter"} {
		code, out, errOut := runMon(filepath.Join("testdata", name+".jsonl"))
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errOut)
		}
		golden := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s: stdout differs from %s:\n%s", name, golden, out)
		}
	}
}

// TestIllTypedTracesJudged runs traces whose values do not fit their
// object: a counter read that returns a unit, a ledger append of an integer
// and a ledger get that returns a record. Each is a safety violation and
// does not converge; none may panic.
func TestIllTypedTracesJudged(t *testing.T) {
	u := trace.Unit{}
	traces := []struct {
		lang string
		w    trace.Word
	}{
		{"SEC_COUNT", trace.NewB().Op(0, trace.OpInc, nil, u).Op(1, trace.OpRead, nil, u).Word()},
		{"EC_LED", trace.NewB().Op(0, trace.OpAppend, trace.Int(1), u).Op(1, trace.OpGet, nil, trace.Seq{}).Word()},
		{"EC_LED", trace.NewB().Op(0, trace.OpAppend, trace.Rec("a"), u).Op(1, trace.OpGet, nil, trace.Rec("a")).Word()},
	}
	for _, tc := range traces {
		code, out, errOut := runMon(writeTrace(t, tc.lang, false, tc.w))
		if code != 0 || !strings.Contains(out, "safety clauses: violated=true") ||
			!strings.Contains(out, "convergence (quiescent tail): false") {
			t.Errorf("%s %v: exit %d\n%s%s", tc.lang, tc.w, code, out, errOut)
		}
	}
}

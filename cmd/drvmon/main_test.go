package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

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

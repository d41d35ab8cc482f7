package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListSources(t *testing.T) {
	code, out, _ := runTrace("-lang", "WEC_COUNT", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "sources of WEC_COUNT") {
		t.Errorf("missing header: %s", out)
	}
	if !strings.Contains(out, "in-language: true") || !strings.Contains(out, "in-language: false") {
		t.Errorf("expected sources with both labels:\n%s", out)
	}
}

func TestUnknownLanguage(t *testing.T) {
	code, _, errOut := runTrace("-lang", "NOPE")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown language") {
		t.Errorf("missing diagnostic: %s", errOut)
	}
}

func TestUnknownSource(t *testing.T) {
	code, _, errOut := runTrace("-lang", "WEC_COUNT", "-source", "nope")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown source") {
		t.Errorf("missing diagnostic: %s", errOut)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := runTrace("-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runTrace("-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

func TestWritesTraceFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	code, _, errOut := runTrace("-lang", "WEC_COUNT", "-steps", "2000", "-o", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "wrote") {
		t.Errorf("missing summary on stderr: %s", errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "WEC_COUNT") {
		t.Errorf("trace file lacks language meta:\n%s", data)
	}
}

func TestTraceToStdout(t *testing.T) {
	code, out, _ := runTrace("-lang", "LIN_REG", "-steps", "1500")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "LIN_REG") {
		t.Errorf("stdout trace lacks meta line:\n%s", out)
	}
}

func TestSizesBelowMinimumRejected(t *testing.T) {
	// Each of these panicked inside the scheduler or a source before the
	// flags were checked; now they are usage errors that run nothing.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "drvtrace: -n 0: must be at least 2"},
		{[]string{"-n", "-1"}, "drvtrace: -n -1: must be at least 2"},
		{[]string{"-lang", "LIN_REG", "-source", "atomic", "-n", "1"}, "drvtrace: -n 1: must be at least 2"},
		{[]string{"-lang", "SC_REG", "-source", "atomic", "-n", "1"}, "drvtrace: -n 1: must be at least 2"},
		{[]string{"-list", "-n", "1"}, "drvtrace: -n 1: must be at least 2"},
		{[]string{"-steps", "-3"}, "drvtrace: -steps -3: must be at least 0"},
	}
	for _, tc := range cases {
		code, out, errOut := runTrace(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if strings.TrimSpace(errOut) != tc.want {
			t.Errorf("%v: stderr %q, want %q", tc.args, errOut, tc.want)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout:\n%s", tc.args, out)
		}
	}
}

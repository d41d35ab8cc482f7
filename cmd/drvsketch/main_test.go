package main

import (
	"bytes"
	"strings"
	"testing"
)

func runSketch(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRendersComparison(t *testing.T) {
	code, out, errOut := runSketch("-steps", "400")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"behaviour: LIN_REG", "monitor verdicts:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	code, _, errOut := runSketch("-kind", "bogus")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown array kind") {
		t.Errorf("missing diagnostic: %s", errOut)
	}
}

func TestUnknownSource(t *testing.T) {
	code, _, errOut := runSketch("-source", "nope")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown source") {
		t.Errorf("missing diagnostic: %s", errOut)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := runSketch("-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runSketch("-no-such-flag"); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

func TestSizesBelowMinimumRejected(t *testing.T) {
	// -n 0 and -n 1 panicked inside a source and a negative -steps ran
	// without a bound; now they are usage errors that run nothing.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "drvsketch: -n 0: must be at least 2"},
		{[]string{"-n", "1"}, "drvsketch: -n 1: must be at least 2"},
		{[]string{"-steps", "-5"}, "drvsketch: -steps -5: must be at least 0"},
	}
	for _, tc := range cases {
		code, out, errOut := runSketch(tc.args...)
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

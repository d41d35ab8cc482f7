package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// smallArgs sizes the table down so the whole golden run takes well under a
// second while every cell still reproduces (see experiment.ShortParams).
var smallArgs = []string{
	"-seeds", "1", "-steps", "3000", "-timed-steps", "600",
	"-sc-steps", "300", "-rounds", "3", "-stages", "2",
}

func runTable(t *testing.T, extra ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(append([]string{}, smallArgs...), extra...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGoldenOutput(t *testing.T) {
	code, out, errOut := runTable(t, "-j", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	golden, err := os.ReadFile("testdata/table_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("sequential output does not match golden file:\n%s\nwant:\n%s", out, golden)
	}
}

func TestParallelOutputByteIdentical(t *testing.T) {
	_, seq, _ := runTable(t, "-j", "1")
	for _, j := range []string{"2", "4", "8"} {
		code, par, errOut := runTable(t, "-j", j)
		if code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, errOut)
		}
		if par != seq {
			t.Errorf("-j %s output differs from sequential:\n%s\nvs\n%s", j, par, seq)
		}
	}
}

func TestPooledOutputByteIdentical(t *testing.T) {
	// Every worker runs on a pooled runtime+session (the monitor package
	// pins a reused session's results to monitor.Run's): the rendered table
	// must match the golden file sequentially and across worker pools.
	golden, err := os.ReadFile("testdata/table_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-j", "1"},
		{"-j", "4"},
	} {
		code, out, errOut := runTable(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut)
		}
		if out != string(golden) {
			t.Errorf("%v output does not match golden file:\n%s\nwant:\n%s", args, out, golden)
		}
	}
}

func TestProgressGoesToStderrOnly(t *testing.T) {
	code, out, errOut := runTable(t, "-j", "4", "-progress")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "[") {
		t.Error("progress lines leaked into stdout")
	}
	lines := strings.Count(errOut, "\n")
	if lines != 28 {
		t.Errorf("expected 28 progress lines on stderr, got %d:\n%s", lines, errOut)
	}
	for done := 1; done <= 28; done++ {
		if !strings.Contains(errOut, fmt.Sprintf("[%2d/28", done)) {
			t.Errorf("missing progress line for cell %d", done)
		}
	}
}

func TestVerboseListsEveryCell(t *testing.T) {
	code, out, _ := runTable(t, "-j", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got := strings.Count(out, "method:"); got != 28 {
		t.Errorf("verbose output lists %d cells, want 28", got)
	}
}

func TestVerboseGolden(t *testing.T) {
	// The per-cell listing pins methods, evidence and status for all 28
	// cells, sequentially and across a worker pool.
	golden, err := os.ReadFile("testdata/table_small_v.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"1", "4"} {
		code, out, errOut := runTable(t, "-j", j, "-v")
		if code != 0 {
			t.Fatalf("-j %s -v: exit %d, stderr:\n%s", j, code, errOut)
		}
		if out != string(golden) {
			t.Errorf("-j %s -v output does not match golden file:\n%s\nwant:\n%s", j, out, golden)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "Usage of drvtable") {
		t.Errorf("no usage text on stderr: %s", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag") {
		t.Errorf("no flag diagnostic on stderr: %s", stderr.String())
	}
}

// TestDegenerateParamsRejected pins the parameter floor: each flag below its
// minimum exits 2 before any cell runs, with a message naming the flag and
// nothing on stdout. Below the floor a run would panic or print a reproduced
// table from empty evidence.
func TestDegenerateParamsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-procs", "1"}, "-procs 1: must be at least 2"},
		{[]string{"-procs", "0"}, "-procs 0: must be at least 2"},
		{[]string{"-procs", "-1"}, "-procs -1: must be at least 2"},
		{[]string{"-seeds", "0"}, "-seeds 0: must be at least 1"},
		{[]string{"-seeds", "-3"}, "-seeds -3: must be at least 1"},
		{[]string{"-steps", "0"}, "-steps 0: must be at least 1"},
		{[]string{"-timed-steps", "0"}, "-timed-steps 0: must be at least 1"},
		{[]string{"-sc-steps", "-5"}, "-sc-steps -5: must be at least 1"},
		{[]string{"-window", "0"}, "-window 0: must be at least 1"},
		{[]string{"-rounds", "0"}, "-rounds 0: must be at least 1"},
		{[]string{"-stages", "0"}, "-stages 0: must be at least 1"},
		{[]string{"-j", "0"}, "-j 0: must be at least 1"},
		{[]string{"-j", "-1"}, "-j -1: must be at least 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", tc.args, stdout.String())
		}
		if got := stderr.String(); got != "drvtable: "+tc.want+"\n" {
			t.Errorf("%v: stderr %q, want %q", tc.args, got, "drvtable: "+tc.want+"\n")
		}
	}
}

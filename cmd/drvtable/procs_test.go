package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// procsFailures pins the process counts at which the full-depth table fails
// one cell (ROADMAP item 16), each with the start of its error line. A count
// that starts to reproduce every cell fails the test until it leaves this set.
var procsFailures = map[int]string{
	7:  "FAILED SEC_COUNT × PWD: seed 2 source over-read: PWD undecided: ",
	9:  "FAILED SEC_COUNT × PWD: seed 2 source over-read: PWD undecided: ",
	13: "FAILED SEC_COUNT × PWD: seed 1 source lagging-converge: PWD violated: ",
	14: "FAILED SEC_COUNT × PWD: seed 1 source lagging-converge: PWD violated: ",
	15: "FAILED SEC_COUNT × PWD: seed 1 source lagging-converge: PWD violated: ",
	16: "FAILED SEC_COUNT × PWD: seed 1 source lagging-converge: PWD violated: ",
}

// cappedTable runs the built drvtable with args under a 3 GB address-space
// cap and a 10 s limit. The cap and the limit also fail a residual search
// that stops being bounded in the Theorem 5.2 walk, as the SC_LED walk was at
// 11 processes (5 s, 1 GB) and 12 (out of memory) before dead-state pruning.
func cappedTable(t *testing.T, bin string, args ...string) (code int, stdout []byte, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", append([]string{"-c", `ulimit -v 3000000; exec "$@"`, "bash", bin}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("drvtable %v: no exit within 10 s", args)
	}
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("drvtable %v: %v", args, err)
	}
	return code, out.Bytes(), errb.String()
}

// TestTable1AtEveryProcessCount builds drvtable and runs the full-depth table
// at -j 2 for every process count from 2 to 16 under the cap: each count
// outside procsFailures must print bench/testdata/table1.golden and exit 0,
// and each count in it must exit 1 with exactly its one pinned error line.
// At 5 processes -j 1 must print what -j 2 printed.
func TestTable1AtEveryProcessCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds drvtable and runs 16 full-depth tables")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "bench", "testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "drvtable")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building drvtable: %v\n%s", err, out)
	}
	for n := 2; n <= 16; n++ {
		code, out, errOut := cappedTable(t, bin, "-j", "2", "-procs", strconv.Itoa(n))
		prefix, fails := procsFailures[n]
		switch {
		case !fails && (code != 0 || !bytes.Equal(out, golden)):
			t.Errorf("-procs %d: exit %d; want exit 0 and the golden table, got stdout:\n%s\nstderr:\n%s", n, code, out, errOut)
		case fails && (code != 1 || strings.Count(errOut, "FAILED ") != 1 || !strings.HasPrefix(errOut, prefix)):
			t.Errorf("-procs %d: exit %d, want 1 with one error line starting %q; stderr:\n%s", n, code, prefix, errOut)
		}
		if n == 5 {
			code, seq, errOut := cappedTable(t, bin, "-j", "1", "-procs", "5")
			if code != 0 || !bytes.Equal(seq, out) {
				t.Errorf("-j 1 -procs 5: exit %d, stdout differs from -j 2's:\n%s\nstderr:\n%s", code, seq, errOut)
			}
		}
	}
}

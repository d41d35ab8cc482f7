package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/drv-go/drv/internal/startheap"
)

// gcState re-executes the test binary as drvexplore with args: the child
// adjusts its starting heap and runs the command as main does, then reads the
// collector's cycle count, GC percent and memory limit just before it exits.
// GOGC and GOMEMLIMIT are dropped from the inherited environment; env adds
// variables of its own.
func gcState(t *testing.T, env []string, args ...string) (cycles, gogc, memLimit uint64) {
	t.Helper()
	if os.Getenv("DRVEXPLORE_TEST_MAIN") == "1" {
		startheap.Adjust()
		code := run(flag.Args(), os.Stdout, os.Stderr)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/gogc:percent"}, {Name: "/gc/gomemlimit:bytes"}}
		metrics.Read(s)
		fmt.Fprintf(os.Stderr, "\ngc state: %d %d %d\n", s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64())
		os.Exit(code)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + t.Name() + "$", "--"}, args...)...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(append(cmd.Env, "DRVEXPLORE_TEST_MAIN=1"), env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("drvexplore %v: %v; stderr:\n%s", args, err, stderr.String())
	}
	_, state, ok := strings.Cut(stderr.String(), "\ngc state: ")
	if _, err := fmt.Sscanf(state, "%d %d %d", &cycles, &gogc, &memLimit); !ok || err != nil {
		t.Fatalf("drvexplore %v: no gc state line; stderr:\n%s", args, stderr.String())
	}
	return cycles, gogc, memLimit
}

// TestDefaultSweepRunsNoCollection pins the starting heap main gives
// drvexplore: the default 200-scenario lang sweep allocates about 8 MB, under
// the 64 MiB limit, so it never collects.
func TestDefaultSweepRunsNoCollection(t *testing.T) {
	if cycles, _, _ := gcState(t, nil, "-family", "lang", "-j", "2"); cycles != 0 {
		t.Errorf("the 200-scenario sweep ran %d GC cycles, want 0", cycles)
	}
}

// TestLongSweepRestoresDefaults pins the other half: a 4,000-scenario sweep
// outgrows the limit, collects, and ends on the runtime's defaults, GOGC=100
// and no memory limit.
func TestLongSweepRestoresDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("a 4,000-scenario sweep")
	}
	cycles, gogc, memLimit := gcState(t, nil, "-family", "lang", "-j", "2", "-seeds", "4000")
	if cycles == 0 || gogc != 100 || memLimit != math.MaxInt64 {
		t.Errorf("the 4,000-scenario sweep ran %d GC cycles and ended at GC percent %d, memory limit %d; want at least 1, 100 and %d",
			cycles, gogc, memLimit, uint64(math.MaxInt64))
	}
}

package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/drv-go/drv/internal/startheap"
)

// gcState re-executes the test binary as drvtable with args: the child
// adjusts its starting heap and runs the command as main does, then reads the
// collector's cycle count, GC percent and memory limit just before it exits.
// GOGC and GOMEMLIMIT are dropped from the inherited environment; env adds
// variables of its own.
func gcState(t *testing.T, env []string, args ...string) (cycles, gogc, memLimit uint64) {
	t.Helper()
	if os.Getenv("DRVTABLE_TEST_MAIN") == "1" {
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
	cmd.Env = append(append(cmd.Env, "DRVTABLE_TEST_MAIN=1"), env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("drvtable %v: %v; stderr:\n%s", args, err, stderr.String())
	}
	_, state, ok := strings.Cut(stderr.String(), "\ngc state: ")
	if _, err := fmt.Sscanf(state, "%d %d %d", &cycles, &gogc, &memLimit); !ok || err != nil {
		t.Fatalf("drvtable %v: no gc state line; stderr:\n%s", args, stderr.String())
	}
	return cycles, gogc, memLimit
}

// TestFullTableRunsNoCollection pins the starting heap main gives drvtable: a
// full-depth table at -j 2 allocates about 21 MB, under the 64 MiB limit, so
// it never collects, while GOGC in the environment still decides.
func TestFullTableRunsNoCollection(t *testing.T) {
	if cycles, _, _ := gcState(t, nil, "-j", "2"); cycles != 0 {
		t.Errorf("drvtable -j 2 ran %d GC cycles, want 0", cycles)
	}
}

// TestFullTableHonoursGOGC pins that GOGC in the environment overrides the
// starting heap: the same table on the runtime's 4 MB first goal collects.
func TestFullTableHonoursGOGC(t *testing.T) {
	if cycles, _, _ := gcState(t, []string{"GOGC=100"}, "-j", "2"); cycles == 0 {
		t.Errorf("drvtable -j 2 under GOGC=100 ran no GC cycle; the environment's GOGC was ignored")
	}
}

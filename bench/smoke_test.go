package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(js, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got has exactly the wanted names, units and
// measured values.
func checkMetrics(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	var missing, extra []string
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			missing = append(missing, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, w.Name, m.Value)
		}
	}
	for name := range got {
		found := false
		for _, w := range want {
			found = found || w.Name == name
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: metrics missing %v, not in BENCHMARK.json %v", what, missing, extra)
	}
}

// TestWorkloadsAtToySize runs every workload end to end through the built
// binaries, then one traced pass, at toy sizes: the short Table 1
// parameters, 20-scenario sweeps and a two-second serve run against a
// drvserve child and an in-process server.
func TestWorkloadsAtToySize(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, ours)
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/drvtable", "./cmd/drvexplore", "./cmd/drvserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	newBench := func() *bench {
		return &bench{root: root, work: t.TempDir(), bin: bin, seed: 1, length: 500 * time.Millisecond, toy: true, log: testLog{t}}
	}

	for _, w := range workloads {
		o, err := w.run(newBench())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o.Failed > 0 || o.firstFailure != "" || o.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %s", w.name, o.Failed, o.Attempted, o.firstFailure)
		}
		checkMetrics(t, w.name, o.Metrics, spec.EndToEnd)
	}

	w, _ := workloadByName("serve-tcp")
	o, err := newBench().traced(w, newSpans())
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed > 0 || o.firstFailure != "" {
		t.Errorf("traced: %d of %d failed: %s", o.Failed, o.Attempted, o.firstFailure)
	}
	checkMetrics(t, "traced", o.Metrics, spec.PerLayer)
}

// testLog sends the benchmark's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

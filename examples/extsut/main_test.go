package main

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

var update = flag.Bool("update", false, "rewrite the golden verdict stream")

// TestGoldenVerdictStream pins the acceptance contract: the demo's verdict
// stream is byte-deterministic for a given seed.
func TestGoldenVerdictStream(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", 3, 60, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	golden := filepath.Join("testdata", "verdicts.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output drifted from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}

	// A second run in the same process must be byte-identical too.
	var again bytes.Buffer
	if err := run(&again, "", 3, 60, 1); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two runs with the same seed diverged")
	}
}

// TestTraceOutRoundTrips pins the -trace output: the written NDJSON files
// parse back to exactly the recorded histories.
func TestTraceOutRoundTrips(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, dir, 3, 60, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, tc := range []struct {
		slug string
		w    workload
	}{
		{"chan_queue", chanWorkload{q: newChanQueue(180)}},
		{"stale_queue", staleWorkload{q: &staleQueue{}}},
	} {
		f, err := os.Open(filepath.Join(dir, tc.slug+".jsonl"))
		if err != nil {
			t.Fatalf("%s: %v", tc.slug, err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.slug, err)
		}
		if tr.Meta.N != 3 {
			t.Fatalf("%s: meta n = %d, want 3", tc.slug, tr.Meta.N)
		}
		want := record(tc.w, 3, 60, 1)
		if !tr.Word.Equal(want) {
			t.Fatalf("%s: round-tripped history differs:\n got %v\nwant %v", tc.slug, tr.Word, want)
		}
	}
}

// TestOnlyExpImports enforces the outside-consumer property: this program
// may import only the standard library and the exported exp/... packages —
// never internal/... (which the Go toolchain would reject for a real
// external module anyway; this test keeps it honest in-repo).
func TestOnlyExpImports(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(path, ".") {
			continue // standard library
		}
		if !strings.HasPrefix(path, "github.com/drv-go/drv/exp/") {
			t.Errorf("import %q is neither std nor exp/...; extsut must consume only the exported surface", path)
		}
	}
}

// TestTraceOutMatchesServeTestdata pins the histories drvserve's tests and
// goldens replay: -trace at the default flags writes, byte for byte, the
// files committed under cmd/drvserve/testdata.
func TestTraceOutMatchesServeTestdata(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, dir, 3, 60, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, slug := range []string{"chan_queue", "stale_queue"} {
		got, err := os.ReadFile(filepath.Join(dir, slug+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "cmd", "drvserve", "testdata", slug+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: -trace wrote a history other than the committed one (regenerate cmd/drvserve/testdata with extsut -trace)", slug)
		}
	}
}

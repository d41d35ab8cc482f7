package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallArgs keeps CLI tests fast: a few dozen scenarios, no replay.
var smallArgs = []string{"-seeds", "25", "-crashes", "2"}

func runExplore(t *testing.T, extra ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(append([]string{}, smallArgs...), extra...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanSweepExitsZero(t *testing.T) {
	code, out, errOut := runExplore(t, "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "no divergences") {
		t.Errorf("missing clean-sweep summary:\n%s", out)
	}
	if !strings.Contains(out, "explored 25 scenarios") {
		t.Errorf("missing scenario count:\n%s", out)
	}
}

func TestOutputDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var files []string
	var outs []string
	for i, j := range []string{"1", "4"} {
		f := filepath.Join(dir, "seeds"+j+".json")
		code, out, errOut := runExplore(t, "-j", j, "-out", f)
		if code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, errOut)
		}
		files = append(files, f)
		outs = append(outs, out)
		_ = i
	}
	a, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("-out files differ between -j 1 and -j 4:\n%s\nvs\n%s", a, b)
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between -j 1 and -j 4")
	}
	if !strings.Contains(string(a), "\"master\": 1") {
		t.Errorf("report JSON missing master seed:\n%s", a)
	}
}

func TestPooledOutputByteIdentical(t *testing.T) {
	// Every worker runs on a pooled runner (the explore package pins pooled ≡
	// fresh): the report, the -out file and the stdout summary must be
	// byte-identical across worker counts.
	dir := t.TempDir()
	var files, outs []string
	for _, cfg := range [][]string{
		{"-j", "2"},
		{"-j", "1"},
	} {
		f := filepath.Join(dir, "seeds"+strings.Join(cfg, "")+".json")
		code, out, errOut := runExplore(t, append(cfg, "-out", f)...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", cfg, code, errOut)
		}
		files = append(files, f)
		outs = append(outs, out)
	}
	first, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(files); i++ {
		js, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, js) {
			t.Errorf("report %d differs from the first report:\n%s\nvs\n%s", i, js, first)
		}
		if outs[i] != outs[0] {
			t.Errorf("stdout %d differs from the first stdout", i)
		}
	}
}

func TestLangFilter(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "seeds.json")
	code, _, errOut := runExplore(t, "-lang", "WEC_COUNT", "-out", f)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	js, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "WEC_COUNT") {
		t.Errorf("filtered sweep never ran WEC_COUNT:\n%s", js)
	}
	for _, other := range []string{"LIN_REG", "SC_REG", "LIN_LED", "SC_LED", "EC_LED", "SEC_COUNT"} {
		if strings.Contains(string(js), other) {
			t.Errorf("filtered sweep ran %s:\n%s", other, js)
		}
	}
}

func TestUnknownLangRejected(t *testing.T) {
	code, _, errOut := runExplore(t, "-lang", "NO_SUCH")
	if code != 2 {
		t.Fatalf("unknown language exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "NO_SUCH") {
		t.Errorf("no diagnostic for the unknown language: %s", errOut)
	}
}

func TestRepeatedFilterEntryRejected(t *testing.T) {
	// A repeated entry would reweigh the sweep's draws.
	for _, args := range [][]string{{"-lang", "LIN_REG,LIN_REG,SC_REG"}, {"-family", "lang,lang"}} {
		code, out, errOut := runExplore(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if !strings.Contains(errOut, "listed twice") {
			t.Errorf("%v: no diagnostic: %s", args, errOut)
		}
		if out != "" {
			t.Errorf("%v ran a sweep:\n%s", args, out)
		}
	}
}

func TestWorkerCountBelowOneRejected(t *testing.T) {
	// A worker count below 1 ran the sweep sequentially without a word;
	// like every other size flag it is a usage error that runs nothing.
	for _, args := range [][]string{{"-j", "0"}, {"-j", "-1"}} {
		code, out, errOut := runExplore(t, args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if want := "drvexplore: " + args[0] + " " + args[1] + ": must be at least 1\n"; errOut != want {
			t.Errorf("%v: stderr %q, want %q", args, errOut, want)
		}
		if out != "" {
			t.Errorf("%v ran a sweep:\n%s", args, out)
		}
	}
}

func TestNegativeBoundsRejected(t *testing.T) {
	// A negative -max-steps ran uncapped without a word; like a negative
	// -crashes it is a usage error that runs nothing.
	for _, tc := range []struct{ flag, want string }{
		{"-max-steps", "negative MaxSteps -5"},
		{"-crashes", "negative MaxCrashes -5"},
	} {
		code, out, errOut := runExplore(t, tc.flag, "-5")
		if code != 2 {
			t.Errorf("%s -5 exited %d, want 2", tc.flag, code)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%s -5: no diagnostic %q: %s", tc.flag, tc.want, errOut)
		}
		if out != "" {
			t.Errorf("%s -5 ran a sweep:\n%s", tc.flag, out)
		}
	}
}

func TestReplaySpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	spec := "drv1:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600"
	code := run([]string{"-replay", spec}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("replay exited %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{spec, "digest:", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-replay", "garbage"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed replay spec exited %d, want 2", code)
	}
}

func TestProgressGoesToStderrOnly(t *testing.T) {
	code, out, errOut := runExplore(t, "-j", "2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "[") {
		t.Error("progress lines leaked into stdout")
	}
	if got := strings.Count(errOut, "\n"); got != 25 {
		t.Errorf("expected 25 progress lines on stderr, got %d", got)
	}
}

func TestCountList(t *testing.T) {
	// Regression: countList silently dropped keys outside CheckNames() and
	// rendered an empty string (instead of "none") when no key matched.
	cases := []struct {
		m    map[string]int
		want string
	}{
		{nil, "none"},
		{map[string]int{}, "none"},
		{map[string]int{"class": 3, "replay": 1}, "class=3 replay=1"},
		// Unknown keys (a report written by a newer explorer) render after
		// the known ones, sorted.
		{map[string]int{"zeta": 2, "alpha": 1, "class": 3}, "class=3 alpha=1 zeta=2"},
		{map[string]int{"mystery": 7}, "mystery=7"},
	}
	for _, tc := range cases {
		if got := countList(tc.m); got != tc.want {
			t.Errorf("countList(%v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}

func TestObjFamilySweep(t *testing.T) {
	// An object-family sweep over the seeded-bug implementations must find
	// bugs (reported on stdout with shrunk reproducers), stay free of stack
	// divergences, and exit 0 — bug findings are the product, not an error.
	code, out, errOut := runExplore(t, "-j", "2", "-family", "obj", "-seeds", "60")
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"objects: ", "bugs: ", "BUG ", "shrunk to drv2:obj/", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("object sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestObjFamilyDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// The new family rides the same byte-determinism contract: -family obj
	// reports are identical across -j 1/-j 4.
	dir := t.TempDir()
	var files, outs []string
	for _, cfg := range [][]string{
		{"-j", "1"},
		{"-j", "4"},
	} {
		f := filepath.Join(dir, "obj"+strings.Join(cfg, "")+".json")
		args := append([]string{"-family", "obj", "-obj", "queue,stack,ledger"}, cfg...)
		code, out, errOut := runExplore(t, append(args, "-out", f)...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", cfg, code, errOut)
		}
		files = append(files, f)
		outs = append(outs, out)
	}
	first, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "drv2:obj/") {
		t.Fatalf("object sweep report contains no object specs:\n%s", first)
	}
	for i := 1; i < len(files); i++ {
		js, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, js) {
			t.Errorf("object report %d differs from the -j 1 report", i)
		}
		if outs[i] != outs[0] {
			t.Errorf("object stdout %d differs from the -j 1 stdout", i)
		}
	}
}

func TestObjFamilyFilters(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "obj.json")
	code, _, errOut := runExplore(t, "-family", "obj", "-obj", "queue", "-impl", "lifo", "-out", f)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	js, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "drv2:obj/queue/lifo") {
		t.Errorf("filtered sweep never ran queue/lifo:\n%s", js)
	}
	for _, other := range []string{"obj/stack", "obj/register", "obj/counter", "obj/ledger", "queue/lock"} {
		if strings.Contains(string(js), other) {
			t.Errorf("filtered sweep ran %s:\n%s", other, js)
		}
	}
	// Unknown families, objects and implementations are usage errors, as is
	// an explicit family set that would silently ignore the object filters.
	for _, args := range [][]string{
		{"-family", "nope"},
		{"-family", "obj", "-obj", "deque"},
		{"-family", "obj", "-impl", "no-such"},
		{"-family", "lang", "-obj", "queue"},
		{"-family", "lang", "-impl", "lifo"},
	} {
		if code, _, _ := runExplore(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}

	// Bare -obj/-impl imply the object family instead of being ignored.
	code, out, errOut := runExplore(t, "-obj", "queue", "-impl", "lifo")
	if code != 0 {
		t.Fatalf("bare -obj/-impl exited %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "objects: queue/lifo=") {
		t.Errorf("bare -obj/-impl did not run the object family:\n%s", out)
	}
}

func TestObjReplaySpec(t *testing.T) {
	// Replaying an object spec that exposes a seeded bug prints the finding
	// and exits 0: the bug is in the SUT, not in the stack.
	var stdout, stderr bytes.Buffer
	spec := "drv2:obj/register/split:n=2:seed=30:pol=random:steps=400:ops=2:mb=0.5"
	code := run([]string{"-replay", spec}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("replay exited %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{spec, "BUG lin", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("object replay output missing %q:\n%s", want, out)
		}
	}
}

func TestMsgFamilySweep(t *testing.T) {
	// A message-family sweep over the seeded-bug emulations must find bugs
	// (reported on stdout with shrunk drv3 reproducers), stay free of stack
	// divergences, and exit 0.
	code, out, errOut := runExplore(t, "-j", "2", "-family", "msg", "-seeds", "60")
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"objects: ", "bugs: ", "BUG ", "shrunk to drv3:msg/", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("message sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestMsgFamilyDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// Byte-determinism extends to the message family: -family msg reports
	// are identical across -j 1/-j 4.
	dir := t.TempDir()
	var files, outs []string
	for _, cfg := range [][]string{
		{"-j", "1"},
		{"-j", "4"},
	} {
		f := filepath.Join(dir, "msg"+strings.Join(cfg, "")+".json")
		args := append([]string{"-family", "msg"}, cfg...)
		code, out, errOut := runExplore(t, append(args, "-out", f)...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", cfg, code, errOut)
		}
		files = append(files, f)
		outs = append(outs, out)
	}
	first, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "drv3:msg/") {
		t.Fatalf("message sweep report contains no message specs:\n%s", first)
	}
	for i := 1; i < len(files); i++ {
		js, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, js) {
			t.Errorf("message report %d differs from the -j 1 report", i)
		}
		if outs[i] != outs[0] {
			t.Errorf("message stdout %d differs from the -j 1 stdout", i)
		}
	}
}

func TestMsgFamilyFilters(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "msg.json")
	// consensus/echo exposes its bug on essentially every schedule, so the
	// report carries full drv3 spec lines to assert the filters on.
	code, _, errOut := runExplore(t, "-family", "msg", "-obj", "consensus", "-impl", "echo", "-net", "starve", "-out", f)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	js, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "drv3:msg/consensus/echo") {
		t.Errorf("filtered sweep never ran consensus/echo:\n%s", js)
	}
	for _, other := range []string{"msg/register", "msg/counter", "consensus/coord", "net=fifo", "net=lifo", "net=random"} {
		if strings.Contains(string(js), other) {
			t.Errorf("filtered sweep ran %s:\n%s", other, js)
		}
	}
	// Unknown network orders are usage errors, as is -net under a family
	// set that would silently ignore it.
	for _, args := range [][]string{
		{"-family", "msg", "-net", "turtle"},
		{"-family", "msg", "-obj", "queue"},
		{"-family", "lang", "-net", "lifo"},
		{"-family", "obj", "-net", "lifo"},
	} {
		if code, _, _ := runExplore(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}

	// Bare -net implies the message family instead of being ignored.
	code, out, errOut := runExplore(t, "-net", "starve")
	if code != 0 {
		t.Fatalf("bare -net exited %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "objects: ") || !strings.Contains(out, "register/") {
		t.Errorf("bare -net did not run the message family:\n%s", out)
	}
}

func TestMsgReplaySpec(t *testing.T) {
	// Replaying a message spec that exposes a seeded emulation bug prints
	// the finding and exits 0: the bug is in the emulation under test, not
	// in the stack.
	var stdout, stderr bytes.Buffer
	spec := "drv3:msg/consensus/echo:n=2:seed=8551264065755986178:pol=biased/0.65:steps=20:ops=1:mb=0.6:net=starve"
	code := run([]string{"-replay", spec}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("replay exited %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{spec, "label:    correct-impl=false", "BUG lin", "no divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("message replay output missing %q:\n%s", want, out)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "Usage of drvexplore") {
		t.Errorf("no usage text on stderr: %s", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

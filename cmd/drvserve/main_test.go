package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the request, response and help goldens")

// slugs are the extsut workloads whose recorded histories are committed
// under testdata (regenerate with: go run ../../examples/extsut -trace testdata).
var slugs = []string{"chan_queue", "stale_queue"}

func loadTrace(t *testing.T, slug string) *trace.Trace {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", slug+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("%s: %v", slug, err)
	}
	return tr
}

func opts(slug string) options {
	return options{stream: slug, logic: "lin", object: "queue"}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRequestGolden pins the exact bytes -send puts on the wire for the
// committed histories.
func TestRequestGolden(t *testing.T) {
	for _, slug := range slugs {
		var buf bytes.Buffer
		if err := encodeRequest(&buf, loadTrace(t, slug), opts(slug)); err != nil {
			t.Fatalf("%s: %v", slug, err)
		}
		checkGolden(t, filepath.Join("testdata", slug+"_request.ndjson"), buf.Bytes())
	}
}

// serveBytes runs one request through a fresh server and returns the raw
// response bytes.
func serveBytes(t *testing.T, cfg serve.Config, req []byte) []byte {
	t.Helper()
	srv := serve.New(cfg)
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}()
	var out bytes.Buffer
	if err := srv.ServeConn(rw{bytes.NewReader(req), &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return out.Bytes()
}

// TestResponseGolden is the acceptance pin: the served verdict stream for a
// fixed input is byte-identical across two runs, whether the server is
// fresh or warm, and matches the committed golden.
func TestResponseGolden(t *testing.T) {
	for _, slug := range slugs {
		req, err := os.ReadFile(filepath.Join("testdata", slug+"_request.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		first := serveBytes(t, serve.Config{}, req)
		checkGolden(t, filepath.Join("testdata", slug+"_response.golden"), first)
		if again := serveBytes(t, serve.Config{}, req); !bytes.Equal(first, again) {
			t.Fatalf("%s: two runs over the same input diverged", slug)
		}
		srv := serve.New(serve.Config{})
		for rep := 0; rep < 2; rep++ {
			var out bytes.Buffer
			if err := srv.ServeConn(rw{bytes.NewReader(req), &out}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, out.Bytes()) {
				t.Fatalf("%s: a warm server's responses differ (round %d)", slug, rep)
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStdioMode drives the actual -stdio command path against the goldens.
func TestStdioMode(t *testing.T) {
	for _, slug := range slugs {
		req, err := os.ReadFile(filepath.Join("testdata", slug+"_request.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", slug+"_response.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-stdio"}, bytes.NewReader(req), &out, &errb); code != 0 {
			t.Fatalf("%s: -stdio exited %d: %s", slug, code, errb.Bytes())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: -stdio output drifted:\n--- got ---\n%s\n--- want ---\n%s", slug, out.Bytes(), want)
		}
	}
}

// TestNegativeProcessStreamFailsAlone sends a stream whose symbols name
// process -1 ahead of a valid stream on one -stdio connection. The bad
// stream must get one stream-level error line instead of crashing its
// replay, and the valid stream's lines must still equal its golden.
func TestNegativeProcessStreamFailsAlone(t *testing.T) {
	valid, err := os.ReadFile(filepath.Join("testdata", "chan_queue_request.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chan_queue_response.golden"))
	if err != nil {
		t.Fatal(err)
	}
	config, rest, _ := bytes.Cut(valid, []byte("\n"))
	req := bytes.Join([][]byte{
		config,
		[]byte(`{"open":{"stream":"neg","logic":"lin","object":"queue"}}`),
		[]byte(`{"event":{"stream":"neg","kind":"meta","meta":{"n":1}}}`),
		[]byte(`{"event":{"stream":"neg","kind":"sym","proc":-1,"sym":"inv","op":"deq"}}`),
		[]byte(`{"event":{"stream":"neg","kind":"sym","proc":-1,"sym":"res","op":"deq","val":{"t":"int","int":-1}}}`),
		[]byte(`{"close":{"stream":"neg"}}`),
		rest,
	}, []byte("\n"))
	var out, errb bytes.Buffer
	if code := run([]string{"-stdio"}, bytes.NewReader(req), &out, &errb); code != 0 {
		t.Fatalf("-stdio exited %d: %s", code, errb.Bytes())
	}
	// The two streams' lines may interleave; split them by stream id.
	var neg []string
	var others bytes.Buffer
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.Contains(line, `"stream":"neg"`) {
			neg = append(neg, line)
		} else {
			others.WriteString(line)
		}
	}
	if len(neg) != 2 || !strings.HasPrefix(neg[0], `{"opened":`) ||
		!strings.HasPrefix(neg[1], `{"error":`) || !strings.Contains(neg[1], "process -1") {
		t.Fatalf("negative-process stream got %q, want an opened line and one error line naming process -1", neg)
	}
	if !bytes.Equal(others.Bytes(), want) {
		t.Fatalf("valid stream drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", others.Bytes(), want)
	}
}

// TestSendMode drives the -send client against an in-process TCP server and
// checks the copied responses equal the golden.
func TestSendMode(t *testing.T) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-serveDone; err != serve.ErrServerClosed {
			t.Fatalf("Serve returned %v", err)
		}
	}()

	for _, slug := range slugs {
		want, err := os.ReadFile(filepath.Join("testdata", slug+"_response.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		args := []string{"-send", ln.Addr().String(), "-stream", slug, "-logic", "lin", "-object", "queue",
			filepath.Join("testdata", slug+".jsonl")}
		if code := run(args, nil, &out, &errb); code != 0 {
			t.Fatalf("%s: -send exited %d: %s", slug, code, errb.Bytes())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: -send output drifted:\n--- got ---\n%s\n--- want ---\n%s", slug, out.Bytes(), want)
		}
	}
}

// TestModeSelection pins the exactly-one-mode flag contract.
func TestModeSelection(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-stdio", "-addr", ":0"},
		{"-send", "x:1", "-stdio"},
		{"-send", "x:1"}, // missing trace file
	} {
		var out, errb bytes.Buffer
		if code := run(args, nil, &out, &errb); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestHelpPinned pins drvserve -h byte for byte: the -logic, -object and
// -array texts list the names the logic, object and array tables hold.
func TestHelpPinned(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, nil, &out, &errb); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("-h wrote to stdout: %q", out.String())
	}
	checkGolden(t, filepath.Join("testdata", "help.golden"), errb.Bytes())
}

// TestSIGINTRightAfterListenDrains re-executes the test binary as a
// `drvserve -addr` server and sends SIGINT the moment its "listening on" line
// appears. The handler is installed before the listener, so the server must
// drain and exit 0 instead of dying to the default signal action.
func TestSIGINTRightAfterListenDrains(t *testing.T) {
	if os.Getenv("DRVSERVE_TEST_SERVER") == "1" {
		os.Exit(run([]string{"-addr", "127.0.0.1:0"}, nil, os.Stdout, os.Stderr))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSIGINTRightAfterListenDrains$")
	cmd.Env = append(os.Environ(), "DRVSERVE_TEST_SERVER=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	var lines []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if strings.Contains(sc.Text(), "listening on") {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Errorf("signal: %v", err)
			}
		}
	}
	err = cmd.Wait()
	out := strings.Join(lines, "\n")
	if err != nil {
		t.Fatalf("server exited with %v; stderr:\n%s", err, out)
	}
	if !strings.Contains(out, "drvserve: draining") {
		t.Fatalf("server exited 0 without draining; stderr:\n%s", out)
	}
}

// TestNegativeSizesExitTwo pins that a negative size is a usage error that
// names its flag, before anything runs.
func TestNegativeSizesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-send", "127.0.0.1:1", "-max-steps", "-3", "trace.jsonl"}, "drvserve: -max-steps -3: must be at least 0\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", tc.args, code)
		}
		if errb.String() != tc.want || out.Len() != 0 {
			t.Errorf("run(%v): stderr %q, stdout %q; want stderr %q and no stdout", tc.args, errb.String(), out.String(), tc.want)
		}
	}
}

// TestHugeMetaStreamFailsAlone sends a stream whose meta line asks for more
// than serve.MaxProcs processes ahead of a valid stream on one -stdio
// connection. The big stream must fail at its meta line, before any replay
// runs, and the valid stream's lines must still equal its golden.
func TestHugeMetaStreamFailsAlone(t *testing.T) {
	valid, err := os.ReadFile(filepath.Join("testdata", "chan_queue_request.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chan_queue_response.golden"))
	if err != nil {
		t.Fatal(err)
	}
	config, rest, _ := bytes.Cut(valid, []byte("\n"))
	req := bytes.Join([][]byte{
		config,
		[]byte(`{"open":{"stream":"big","logic":"wec"}}`),
		[]byte(fmt.Sprintf(`{"event":{"stream":"big","kind":"meta","meta":{"n":%d}}}`, serve.MaxProcs+1)),
		[]byte(`{"event":{"stream":"big","kind":"sym","proc":0,"sym":"inv","op":"read"}}`),
		[]byte(`{"event":{"stream":"big","kind":"sym","proc":0,"sym":"res","op":"read","val":{"t":"int","int":0}}}`),
		[]byte(`{"close":{"stream":"big"}}`),
		rest,
	}, []byte("\n"))
	var out, errb bytes.Buffer
	if code := run([]string{"-stdio"}, bytes.NewReader(req), &out, &errb); code != 0 {
		t.Fatalf("-stdio exited %d: %s", code, errb.Bytes())
	}
	var big []string
	var others bytes.Buffer
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.Contains(line, `"stream":"big"`) {
			big = append(big, line)
		} else {
			others.WriteString(line)
		}
	}
	wantErr := fmt.Sprintf(`{"error":{"stream":"big","line":3,"msg":"meta n must be ≤ %d, got %d"}}`+"\n", serve.MaxProcs, serve.MaxProcs+1)
	if len(big) != 2 || !strings.HasPrefix(big[0], `{"opened":`) || big[1] != wantErr {
		t.Fatalf("big stream got %q, want an opened line and %q", big, wantErr)
	}
	if !bytes.Equal(others.Bytes(), want) {
		t.Fatalf("valid stream drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", others.Bytes(), want)
	}
}

// pacedLines feeds b to w one line at a time, sleeping gap before each, and
// closes w.
func pacedLines(w *io.PipeWriter, b []byte, gap time.Duration) {
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		time.Sleep(gap)
		if _, err := w.Write(line); err != nil {
			return
		}
	}
	w.Close()
}

// TestPacedStdioMatchesGolden writes each line of the golden requests to
// -stdio 2 ms apart, so the replay keeps waiting for input: the output must
// still equal the golden byte for byte.
func TestPacedStdioMatchesGolden(t *testing.T) {
	for _, slug := range slugs {
		req, err := os.ReadFile(filepath.Join("testdata", slug+"_request.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", slug+"_response.golden"))
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		go pacedLines(pw, req, 2*time.Millisecond)
		var out, errb bytes.Buffer
		if code := run([]string{"-stdio"}, pr, &out, &errb); code != 0 {
			t.Fatalf("%s: -stdio exited %d: %s", slug, code, errb.Bytes())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: paced -stdio output drifted:\n--- got ---\n%s\n--- want ---\n%s", slug, out.Bytes(), want)
		}
	}
}

// TestSendModeLongTrace sends a trace whose request and mid-stream verdict
// lines each run to megabytes, more than the connection's socket buffers
// hold: -send must read responses while it sends, and complete with the
// lines the same request gets over -stdio.
func TestSendModeLongTrace(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 12000; i++ {
		b.Op(0, trace.OpInc, nil, trace.Unit{}).Op(1, trace.OpRead, nil, trace.Int(int64(i+1)))
	}
	var tf bytes.Buffer
	w := trace.NewWriter(&tf)
	if err := w.WriteMeta(trace.Meta{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWord(b.Word()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.jsonl")
	if err := os.WriteFile(path, tf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{stream: "long", logic: "wec"}
	var req bytes.Buffer
	tr, err := trace.Read(bytes.NewReader(tf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := encodeRequest(&req, tr, o); err != nil {
		t.Fatal(err)
	}
	want := serveBytes(t, serve.Config{}, req.Bytes())

	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		<-serveDone
	}()
	var out, errb bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-send", ln.Addr().String(), "-stream", "long", "-logic", "wec", path}, nil, &out, &errb)
	}()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("-send exited %d: %s", c, errb.Bytes())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("-send did not complete")
	}
	if req.Len() < 1<<20 || bytes.Count(want, []byte(`"proc":0,`)) < 10000 {
		t.Fatalf("request of %d bytes, %d bytes of responses: too short to fill the socket buffers", req.Len(), len(want))
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-send output (%d bytes) differs from the -stdio responses (%d bytes)", out.Len(), len(want))
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/drv-go/drv/exp/trace"
)

// requestLines returns every line of the committed drvserve request files.
func requestLines(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "drvserve", "testdata", "*_request.ndjson"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no request testdata: %v", err)
	}
	var lines [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))...)
	}
	return lines
}

// symLineMisses are lines one edit away from a canonical symbol line; each
// must decline to encoding/json.
var symLineMisses = []string{
	`{"event":{"stream":"s\u0031","kind":"sym","proc":1,"sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":1e0,"sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":1.0,"sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":01,"sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":99999999999999999999,"sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":1,"sym":"inv","op":"enq","op":"deq"}}`,
	`{"event":{"stream":"s","kind":"sym","proc":1,"sym":"inv","op":"enq"}} `,
	`{"event":{"stream":"s","kind":"sym","proc":1,"sym":"inv","op":"enq"}}}`,
	`{"event":{"stream":"s","kind":"sym","proc":1,"sym":"inv","op":"enq","val":null}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"res","op":"deq","val":{"t":"seq","seq":["a"]}}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"res","op":"deq","val":{"t":"int","int":9223372036854775807}}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"res","op":"deq","val":{"t":"int","int":9223372036854775808}}}`,
	`{"event":{"stream":"s","Kind":"sym","sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"é","kind":"sym","sym":"inv","op":"enq"}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"inv","op":"enq","step":3}}`,
	`{"event":{"stream":"s","kind":"meta","meta":{"n":2}}}`,
	`{"event":{"stream":"s","kind":"verdict","proc":1,"verdict":"YES"}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"inv","op":"enq"},"close":{"stream":"s"}}`,
	`{"event":{"stream":"s","kind":"sym","sym":"inv","op":"enq"}`,
	`{"event":{"stream":"s","kind":"sym","proc":-,"sym":"inv","op":"enq"}}`,
	`{"close":{"stream":"s"}}`,
	`{}`,
	`null`,
	``,
}

// TestDecodeSymLineTakesCanonicalLines pins which lines the hand parser
// takes: every symbol line json.Marshal emits (bar seq values and integers
// past 18 digits) and no near miss. The fuzz target then shows that what it
// takes decodes as json.Unmarshal would.
func TestDecodeSymLineTakesCanonicalLines(t *testing.T) {
	lines := requestLines(t)
	syms := 0
	for _, raw := range lines {
		var req Request
		want := bytes.Contains(raw, []byte(`"kind":"sym"`))
		if decodeSymLine(raw, &req) != want {
			t.Fatalf("decodeSymLine took=%v, want %v on %s", !want, want, raw)
		}
		if want {
			syms++
		}
	}
	if syms == 0 {
		t.Fatal("request testdata holds no symbol lines")
	}
	for _, sym := range []trace.Symbol{
		trace.NewInv(0, "enq", trace.Int(-7)),
		trace.NewRes(123456789, "deq", trace.Unit{}),
		trace.NewRes(3, "get", trace.Rec("a b/c")),
		trace.NewInv(1, "custom-op", nil),
		trace.NewRes(2, "read", trace.Int(-999999999999999999)),
	} {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(Request{Event: &StreamEvent{Stream: "stream-1", Event: ev}})
		if err != nil {
			t.Fatal(err)
		}
		var got, want Request
		if !decodeSymLine(raw, &got) {
			t.Fatalf("canonical line declined: %s", raw)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decoded to %+v, json.Unmarshal gives %+v", raw, got.Event, want.Event)
		}
	}
	for _, raw := range symLineMisses {
		var req Request
		if decodeSymLine([]byte(raw), &req) {
			t.Fatalf("near miss taken: %s", raw)
		}
		if !reflect.DeepEqual(req, Request{}) {
			t.Fatalf("declined line %s touched the request: %+v", raw, req)
		}
	}
}

// FuzzDecodeRequest checks decodeRequest against json.Unmarshal on
// arbitrary bytes: the same error or none, the same error text and the same
// decoded Request.
func FuzzDecodeRequest(f *testing.F) {
	for _, raw := range requestLines(f) {
		f.Add(raw)
	}
	for _, raw := range symLineMisses {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var got, want Request
		gotErr := decodeRequest(raw, &got)
		wantErr := json.Unmarshal(raw, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: decodeRequest error %v, json.Unmarshal error %v", raw, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeRequest gives %#v, json.Unmarshal gives %#v", raw, got, want)
		}
	})
}

// FuzzAppendResponse checks appendResponse against json.Marshal plus a
// newline for verdict, done and error lines with arbitrary strings, appended
// after existing bytes.
func FuzzAppendResponse(f *testing.F) {
	f.Add("chan_queue", "YES", "msg", 0, 3, 39, 10, false)
	f.Add("s", "NO", "", 2, 0, 0, 0, true)
	f.Add("a<b>&c", "MAYBE", "  ", -1, 7, 1<<40, -5, false)
	f.Add("\xff\xfe", "\"\\", "\x00\x1f\x7f", 1, 1, 1, 1, true)
	f.Fuzz(func(t *testing.T, stream, verdict, msg string, a, b, c, d int, truncated bool) {
		for _, r := range []Response{
			{Verdict: &VerdictEvent{Stream: stream, Proc: a, Index: b, Verdict: verdict, Step: c, Hist: d}},
			{Done: &Done{Stream: stream, Events: a, Steps: b, Verdicts: c, NO: d, Truncated: truncated}},
			{Error: &StreamError{Stream: stream, Line: a, Msg: msg}},
		} {
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want = append([]byte("prefix"), append(want, '\n')...)
			if got := appendResponse([]byte("prefix"), r); !bytes.Equal(got, want) {
				t.Fatalf("appendResponse:\n got %q\nwant %q", got, want)
			}
		}
	})
}

// canonicalSymLine is a typical history line of the serve-tcp traffic.
const canonicalSymLine = `{"event":{"stream":"chan_queue","kind":"sym","proc":2,"sym":"res","op":"deq","val":{"t":"int","int":-1}}}`

// TestDecodeEventLineAllocs gates the hand parser's allocations on a
// canonical symbol line: the event with its value, and the stream id.
// json.Unmarshal takes 16 on the same line.
func TestDecodeEventLineAllocs(t *testing.T) {
	raw := []byte(canonicalSymLine)
	var req Request
	allocs := testing.AllocsPerRun(200, func() {
		req = Request{}
		if err := decodeRequest(raw, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding a canonical symbol line takes %v allocations, budget 4", allocs)
	}
}

// verdictAndDone are the two response lines appendResponse writes by hand.
var verdictAndDone = []Response{
	{Verdict: &VerdictEvent{Stream: "chan_queue", Proc: 1, Index: 12, Verdict: "YES", Step: 1039, Hist: 52}},
	{Done: &Done{Stream: "chan_queue", Events: 64, Steps: 2210, Verdicts: 96, NO: 3, Truncated: true}},
}

// TestAppendResponseAllocs gates verdict and done lines appended into a
// reused buffer at zero allocations.
func TestAppendResponseAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, r := range verdictAndDone {
		if allocs := testing.AllocsPerRun(200, func() { buf = appendResponse(buf[:0], r) }); allocs != 0 {
			t.Fatalf("appending %s takes %v allocations, budget 0", buf, allocs)
		}
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	raw := []byte(canonicalSymLine)
	b.ReportAllocs()
	var req Request
	for b.Loop() {
		req = Request{}
		if err := decodeRequest(raw, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendResponse(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf = appendResponse(buf[:0], verdictAndDone[0])
	}
}

// TestServeLockStepFlushOnDrain drives a lock-step client over TCP: it sends
// one stream and waits for that stream's done line before sending the next.
// The writer flushes only when its queue drains, so a line it held back
// would stall the client here. The transcript must equal the per-stream
// responses served one at a time, and after Shutdown every goroutine the
// server started must exit.
func TestServeLockStepFlushOnDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A held-back line fails the read below instead of hanging the test.
	if err := nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	readLine := func() []byte {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("client stalled: %v", err)
		}
		return line
	}

	if _, err := nc.Write(request(t)); err != nil {
		t.Fatal(err)
	}
	ack := readLine()
	got := append([]byte(nil), ack...)
	want := append([]byte(nil), ack...)
	const streams = 50
	for i := 0; i < streams; i++ {
		open := Open{Stream: fmt.Sprintf("s%02d", i), Logic: "lin", Object: "queue"}
		msgs := streamRequest(t, open, 2, queueWord())
		solo := serveOnce(t, Config{}, request(t, msgs...))
		want = append(want, solo[len(ack):]...)

		req := request(t, msgs...)
		if _, err := nc.Write(req[len(ack):]); err != nil {
			t.Fatal(err)
		}
		for {
			line := readLine()
			got = append(got, line...)
			if bytes.HasPrefix(line, []byte(`{"done":`)) {
				break
			}
		}
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if rest, err := br.ReadBytes('\n'); len(rest) != 0 || err == nil {
		t.Fatalf("lines after the last done: %q, %v", rest, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lock-step transcript differs from the per-stream responses:\n got %s\nwant %s", got, want)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

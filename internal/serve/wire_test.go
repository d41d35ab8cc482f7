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

	"github.com/drv-go/drv/exp/monitor"
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
// takes decodes as json.Unmarshal and trace.DecodeSymbol would.
func TestDecodeSymLineTakesCanonicalLines(t *testing.T) {
	lines := requestLines(t)
	syms := 0
	for _, raw := range lines {
		want := bytes.Contains(raw, []byte(`"kind":"sym"`))
		if _, _, took := decodeSymbol(raw); took != want {
			t.Fatalf("decodeSymbol took=%v, want %v on %s", took, want, raw)
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
		trace.NewRes(0, "scan", trace.Int(255)),
	} {
		raw := symbolRequest(t, "stream-1", sym)
		id, got, ok := decodeSymbol(raw)
		if !ok {
			t.Fatalf("canonical line declined: %s", raw)
		}
		if string(id) != "stream-1" || !reflect.DeepEqual(got, sym) {
			t.Fatalf("%s decoded to stream %q, %#v; want stream-1, %#v", raw, id, got, sym)
		}
	}
	if raw := symbolRequest(t, "s", trace.NewRes(0, "scan", trace.Seq{})); symbolTaken(raw) {
		t.Fatalf("seq value taken: %s", raw)
	}
	for _, raw := range symLineMisses {
		if symbolTaken([]byte(raw)) {
			t.Fatalf("near miss taken: %s", raw)
		}
	}
}

// symbolRequest is json.Marshal's request line for sym on stream id.
func symbolRequest(tb testing.TB, id string, sym trace.Symbol) []byte {
	tb.Helper()
	ev, err := trace.EncodeSymbol(sym)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(Request{Event: &StreamEvent{Stream: id, Event: ev}})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// symbolTaken reports whether decodeSymbol takes raw.
func symbolTaken(raw []byte) bool {
	_, _, ok := decodeSymbol(raw)
	return ok
}

// FuzzDecodeRequest checks the hand parser against encoding/json on
// arbitrary bytes: on every line it takes, json.Unmarshal must give a
// Request holding only an event of kind sym on the same stream, and
// trace.DecodeSymbol must give the same symbol from that event — so the
// reader's straight path pushes what handleEvent would.
func FuzzDecodeRequest(f *testing.F) {
	for _, raw := range requestLines(f) {
		f.Add(raw)
	}
	for _, raw := range symLineMisses {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		id, sym, ok := decodeSymbol(raw)
		if !ok {
			return
		}
		var req Request
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatalf("%q: taken by decodeSymbol, json.Unmarshal fails: %v", raw, err)
		}
		ev := req.Event
		if ev == nil || !reflect.DeepEqual(req, Request{Event: ev}) || ev.Kind != trace.KindSym {
			t.Fatalf("%q: taken by decodeSymbol, json.Unmarshal gives %#v", raw, req)
		}
		if ev.Stream != string(id) {
			t.Fatalf("%q: decodeSymbol gives stream %q, json.Unmarshal %q", raw, id, ev.Stream)
		}
		want, err := trace.DecodeSymbol(ev.Event)
		if err != nil {
			t.Fatalf("%q: taken by decodeSymbol, trace.DecodeSymbol fails: %v", raw, err)
		}
		if !reflect.DeepEqual(sym, want) {
			t.Fatalf("%q: decodeSymbol gives %#v, trace.DecodeSymbol %#v", raw, sym, want)
		}
	})
}

// FuzzAppendResponse checks appendResponse against json.Marshal plus a
// newline for verdict, done and error lines with arbitrary strings, appended
// after existing bytes, and appendVerdict against it for the same verdict.
func FuzzAppendResponse(f *testing.F) {
	f.Add("chan_queue", "YES", "msg", 0, 3, 39, 10, false)
	f.Add("s", "NO", "", 2, 0, 0, 0, true)
	f.Add("a<b>&c", "MAYBE", "  ", -1, 7, 1<<40, -5, false)
	f.Add("\xff\xfe", "\"\\", "\x00\x1f\x7f", 1, 1, 1, 1, true)
	f.Fuzz(func(t *testing.T, stream, verdict, msg string, a, b, c, d int, truncated bool) {
		v := VerdictEvent{Stream: stream, Proc: a, Index: b, Verdict: verdict, Step: c, Hist: d}
		for _, r := range []Response{
			{Verdict: &v},
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
			if r.Verdict == nil {
				continue
			}
			if got := appendVerdict([]byte("prefix"), v); !bytes.Equal(got, want) {
				t.Fatalf("appendVerdict:\n got %q\nwant %q", got, want)
			}
		}
	})
}

// canonicalSymLine is a typical history line of the serve-tcp traffic.
const canonicalSymLine = `{"event":{"stream":"chan_queue","kind":"sym","proc":2,"sym":"res","op":"deq","val":{"t":"int","int":-1}}}`

// TestDecodeEventLineAllocs gates the reader's straight path for a symbol
// line — decode, stream lookup, and the push into the stream's Feed up to
// its event check — at one allocation on the canonical line, which boxes
// the Int(-1) value, and at none for a line with no value, a unit value or
// an int in 0–255, which the runtime boxes without allocating.
// json.Unmarshal takes 16 on the canonical line. The canonical line, a
// response with no pending invocation, fails the check, so the replay
// never runs here; BenchmarkServeConn measures it.
func TestDecodeEventLineAllocs(t *testing.T) {
	c := &conn{srv: New(Config{}), streams: map[string]*stream{}}
	st := &stream{id: "chan_queue", logic: monitor.LogicLin, object: trace.Queue(), meta: &trace.Meta{N: 3}}
	c.start(st)
	defer st.sess.Close()
	c.streams[st.id] = st
	for _, tc := range []struct {
		line   string
		budget float64
	}{
		{canonicalSymLine, 1},
		{`{"event":{"stream":"chan_queue","kind":"sym","proc":2,"sym":"inv","op":"deq"}}`, 0},
		{`{"event":{"stream":"chan_queue","kind":"sym","sym":"res","op":"enq","val":{"t":"unit"}}}`, 0},
		{`{"event":{"stream":"chan_queue","kind":"sym","proc":1,"sym":"inv","op":"enq","val":{"t":"int","int":255}}}`, 0},
	} {
		raw := []byte(tc.line)
		allocs := testing.AllocsPerRun(200, func() {
			if !c.pushSymbol(raw) {
				t.Fatalf("straight path declined %s", raw)
			}
		})
		if allocs > tc.budget {
			t.Fatalf("pushing %s takes %v allocations, budget %v", raw, allocs, tc.budget)
		}
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

// TestAppendVerdictAllocs gates the by-value verdict line, the writer's
// path for process 0's online verdicts and a replay's lines at close, at
// zero allocations into a reused buffer.
func TestAppendVerdictAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	v := *verdictAndDone[0].Verdict
	for _, verdict := range []monitor.Verdict{monitor.Yes, monitor.No, monitor.Maybe} {
		allocs := testing.AllocsPerRun(200, func() {
			v.Verdict = verdict.String()
			buf = appendVerdict(buf[:0], v)
		})
		if allocs != 0 {
			t.Fatalf("appending %s takes %v allocations, budget 0", buf, allocs)
		}
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	raw := []byte(canonicalSymLine)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, ok := decodeSymbol(raw); !ok {
			b.Fatal("canonical line declined")
		}
	}
}

func BenchmarkAppendResponse(b *testing.B) {
	buf := make([]byte, 0, 256)
	v := *verdictAndDone[0].Verdict
	b.ReportAllocs()
	for b.Loop() {
		buf = appendVerdict(buf[:0], v)
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

package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// randomHistory builds a random well-formed history of n processes: queue
// operations, or counter operations for the counter logics.
func randomHistory(rng *rand.Rand, n, ops int, counter bool) trace.Word {
	b := trace.NewB()
	pending := make([]string, n)
	for k := 0; k < 2*ops; k++ {
		p := rng.Intn(n)
		if pending[p] == "" {
			switch {
			case counter && rng.Intn(2) == 0:
				pending[p] = trace.OpInc
				b.Inv(p, trace.OpInc, nil)
			case counter:
				pending[p] = trace.OpRead
				b.Inv(p, trace.OpRead, nil)
			case rng.Intn(2) == 0:
				pending[p] = "enq"
				b.Inv(p, "enq", trace.Int(int64(rng.Intn(3))))
			default:
				pending[p] = "deq"
				b.Inv(p, "deq", nil)
			}
			continue
		}
		var ret trace.Value = trace.Unit{}
		switch pending[p] {
		case trace.OpRead, "deq":
			ret = trace.Int(int64(rng.Intn(3)))
		}
		b.Res(p, pending[p], ret)
		pending[p] = ""
	}
	return b.Word()
}

// batchLines renders the lines a stream must get, from a batch
// exp/monitor.Run of its history: opened, every verdict in (proc, index)
// order, then done.
func batchLines(t *testing.T, open Open, n int, w trace.Word) []string {
	t.Helper()
	logic, err := monitor.ParseLogic(open.Logic)
	if err != nil {
		t.Fatal(err)
	}
	object, err := objectByName(open.Object)
	if err != nil {
		t.Fatal(err)
	}
	res, err := monitor.Run(monitor.Config{N: n, Object: object, Logic: logic, History: w, MaxSteps: open.MaxSteps})
	truncated := errors.Is(err, monitor.ErrTruncated)
	if err != nil && !truncated {
		t.Fatal(err)
	}
	lines := []string{string(appendResponse(nil, Response{Opened: &Opened{Stream: open.Stream}}))}
	verdicts, no := 0, 0
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			verdicts++
			if v == monitor.No {
				no++
			}
			lines = append(lines, string(appendVerdict(nil, VerdictEvent{
				Stream: open.Stream, Proc: p, Index: k, Verdict: v.String(), Step: res.StepAt[p][k], Hist: res.HistAt[p][k],
			})))
		}
	}
	return append(lines, string(appendResponse(nil, Response{Done: &Done{
		Stream: open.Stream, Events: len(res.History), Steps: res.Steps, Verdicts: verdicts, NO: no, Truncated: truncated,
	}})))
}

// byStream splits response bytes into each stream's lines, keyed by id.
func byStream(t *testing.T, raw []byte) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rs := parseResponses(t, line)
		if len(rs) != 1 {
			t.Fatalf("response line %q does not parse as one response", line)
		}
		r := rs[0]
		id := ""
		switch {
		case r.Opened != nil:
			id = r.Opened.Stream
		case r.Verdict != nil:
			id = r.Verdict.Stream
		case r.Done != nil:
			id = r.Done.Stream
		case r.Error != nil:
			id = r.Error.Stream
		case r.Config != nil:
			continue
		}
		out[id] = append(out[id], string(line))
	}
	return out
}

// pacedReader delivers b in chunks of random size, sleeping a random few
// hundred microseconds before some of them, so a replay often catches up
// with its input and waits.
func pacedReader(b []byte, rng *rand.Rand) io.Reader {
	pr, pw := io.Pipe()
	var chunks [][]byte
	var gaps []time.Duration
	for len(b) > 0 {
		k := 1 + rng.Intn(300)
		if k > len(b) {
			k = len(b)
		}
		chunks = append(chunks, b[:k])
		b = b[k:]
		gap := time.Duration(0)
		if rng.Intn(4) == 0 {
			gap = time.Duration(rng.Intn(400)) * time.Microsecond
		}
		gaps = append(gaps, gap)
	}
	go func() {
		for i, c := range chunks {
			time.Sleep(gaps[i])
			if _, err := pw.Write(c); err != nil {
				return
			}
		}
		pw.Close()
	}()
	return pr
}

// TestServeOnlineMatchesBatch is the online-replay differential: several
// interleaved streams per connection — lin and sc over queues, wec over
// counters, some cut by max_steps, each id reused by a later stream — fed
// at a random pace in random chunks, and again all at once. Each stream id's
// lines must equal, byte for byte, its runs' batch exp/monitor.Run lines in
// order.
func TestServeOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	logics := []Open{{Logic: "lin", Object: "queue"}, {Logic: "sc", Object: "queue"}, {Logic: "wec"}}
	truncated := 0
	for round := 0; round < 6; round++ {
		ids := []string{"a", "b", "c"}
		lanes := map[string][]Request{}
		want := map[string][]string{}
		for _, id := range ids {
			for run := 0; run < 2; run++ {
				open := logics[rng.Intn(len(logics))]
				open.Stream = id
				if rng.Intn(4) == 0 {
					open.MaxSteps = 20 + rng.Intn(40)
				}
				n := 1 + rng.Intn(3)
				w := randomHistory(rng, n, 2+rng.Intn(12), open.Logic == "wec")
				lanes[id] = append(lanes[id], streamRequest(t, open, n, w)...)
				lines := batchLines(t, open, n, w)
				if strings.Contains(lines[len(lines)-1], `"truncated":true`) {
					truncated++
				}
				want[id] = append(want[id], lines...)
			}
		}
		// Interleave the lanes at random; each lane keeps its own order.
		var msgs []Request
		for {
			var live []string
			for _, id := range ids {
				if len(lanes[id]) > 0 {
					live = append(live, id)
				}
			}
			if len(live) == 0 {
				break
			}
			id := live[rng.Intn(len(live))]
			msgs = append(msgs, lanes[id][0])
			lanes[id] = lanes[id][1:]
		}
		req := request(t, msgs...)
		for _, in := range []io.Reader{pacedReader(req, rng), bytes.NewReader(req)} {
			var out bytes.Buffer
			if err := srv.ServeConn(rw{in, &out}); err != nil {
				t.Fatal(err)
			}
			got := byStream(t, out.Bytes())
			for _, id := range ids {
				if g, w := strings.Join(got[id], ""), strings.Join(want[id], ""); g != w {
					t.Fatalf("round %d, stream %s:\n--- served ---\n%s--- batch ---\n%s", round, id, g, w)
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no stream was cut by max_steps")
	}
}

// lineReader collects a connection's response lines on a channel.
func lineReader(r io.Reader) <-chan string {
	lines := make(chan string, 1024)
	go func() {
		defer close(lines)
		br := bufio.NewReader(r)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			lines <- line
		}
	}()
	return lines
}

// TestServeEmitsBeforeClose holds a stream's close back and waits for its
// process-0 verdicts. A verdict can be reported once the replay has taken
// the events the batch replay had pulled when it reported it
// (Result.PulledAt): those short of the whole history must arrive while the
// stream is still open, and no line but process 0's verdicts may arrive
// before close. Then close brings the rest, and the stream's lines equal
// the batch replay's.
func TestServeEmitsBeforeClose(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 6; i++ {
		b.Op(0, "enq", trace.Int(int64(i)), trace.Unit{}).Op(1, "deq", nil, trace.Int(int64(i)))
	}
	w := b.Word()
	open := Open{Stream: "early", Logic: "lin", Object: "queue"}
	want := batchLines(t, open, 2, w)
	res, err := monitor.Run(monitor.Config{N: 2, Object: trace.Queue(), Logic: monitor.LogicLin, History: w})
	if err != nil {
		t.Fatal(err)
	}
	early := 0
	for early < len(res.PulledAt[0]) && res.PulledAt[0][early] < len(w) {
		early++
	}
	if early == 0 {
		t.Fatal("the history gives process 0 no verdict before its end")
	}

	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	inR, inW := io.Pipe()
	defer inW.Close() // a failed test still lets ServeConn, then Shutdown, return
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := srv.ServeConn(rw{inR, outW})
		outW.Close()
		served <- err
	}()
	lines := lineReader(outR)
	msgs := streamRequest(t, open, 2, w)
	req := request(t, msgs[:len(msgs)-1]...) // everything but close
	if _, err := inW.Write(req); err != nil {
		t.Fatal(err)
	}
	timeout := time.After(20 * time.Second)
	next := func() string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("response stream ended early")
			}
			return l
		case <-timeout:
			t.Fatal("no line arrived while the stream was open")
		}
		return ""
	}
	if l := next(); !strings.HasPrefix(l, `{"config":`) {
		t.Fatalf("first line %q", l)
	}
	var got []string
	for len(got) < 1+early {
		got = append(got, next())
	}
	for quiet := time.After(50 * time.Millisecond); ; {
		select {
		case l := <-lines:
			got = append(got, l)
			if !strings.HasPrefix(l, `{"verdict":{"stream":"early","proc":0,`) {
				t.Fatalf("line %q arrived before close", l)
			}
			continue
		case <-quiet:
		}
		break
	}

	closeReq := request(t, msgs[len(msgs)-1])
	if _, err := inW.Write(closeReq[bytes.IndexByte(closeReq, '\n')+1:]); err != nil {
		t.Fatal(err)
	}
	for len(got) < len(want) {
		got = append(got, next())
	}
	inW.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, ""), strings.Join(want, ""); g != w {
		t.Fatalf("served lines differ from the batch replay's:\n--- served ---\n%s--- batch ---\n%s", g, w)
	}
}

// connFrames lists the goroutine stacks still running a connection's code.
func connFrames() string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "serve.(*conn)") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// connSettle waits for every goroutine of a connection to end. A replay
// goroutine that ServeConn waited for has run its deferred wg.Done, but
// may still be unwinding when ServeConn returns; one that leaked never
// ends, and the deadline reports it.
func connSettle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		frames := connFrames()
		if frames == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection goroutines still running 10 s after ServeConn returned:\n%s", frames)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits for the goroutine count to return to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d at the baseline:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeLeavesNoGoroutines ends connections with replays in every state —
// streams still open at EOF, a replay abandoned mid-run when its stream
// fails, replays waiting for input — and checks that every goroutine of
// the connection ends once ServeConn returns, and Shutdown, which closes the
// idle sessions, returns the goroutine count to its baseline.
func TestServeLeavesNoGoroutines(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 60; i++ {
		b.Op(0, "write", trace.Int(int64(i)), trace.Unit{}).Op(1, "read", nil, trace.Int(int64(i)))
	}
	long := b.Word()
	openLong := func(id string) Open { return Open{Stream: id, Logic: "lin", Object: "register"} }
	full := streamRequest(t, openLong("full"), 2, long)
	open := streamRequest(t, openLong("open"), 2, long)
	open = open[:len(open)-1] // no close
	failing := streamRequest(t, openLong("failing"), 2, long)
	verdict := Request{Event: &StreamEvent{Stream: "failing", Event: trace.Event{Kind: trace.KindVerdict, Verdict: "YES"}}}
	failing = append(append(append([]Request(nil), failing[:60]...), verdict), failing[60:]...)

	for _, tc := range []struct {
		name string
		msgs []Request
		// wantDone lists the streams whose done line must arrive.
		wantDone []string
	}{
		{"open at EOF", append(append([]Request(nil), open...), full...), []string{"full"}},
		{"abandoned mid-run", append(append([]Request(nil), failing...), full...), []string{"full"}},
		{"open streams only", append(append([]Request(nil), open...), streamRequest(t, openLong("x"), 2, long)[:30]...), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv := New(Config{})
			for _, in := range []io.Reader{bytes.NewReader(request(t, tc.msgs...)), pacedReader(request(t, tc.msgs...), rand.New(rand.NewSource(3)))} {
				var out bytes.Buffer
				if err := srv.ServeConn(rw{in, &out}); err != nil {
					t.Fatal(err)
				}
				connSettle(t)
				got := byStream(t, out.Bytes())
				for _, id := range tc.wantDone {
					if lines := got[id]; len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], `{"done":`) {
						t.Fatalf("stream %s got no done line:\n%s", id, out.Bytes())
					}
				}
				for id, lines := range got {
					for _, l := range lines {
						if id != "full" && strings.HasPrefix(l, `{"done":`) {
							t.Fatalf("unclosed or failed stream %s got %s", id, l)
						}
					}
				}
				if lines := got["failing"]; len(lines) > 0 && !strings.HasPrefix(lines[len(lines)-1], `{"error":`) {
					t.Fatalf("failed stream's last line is %s", lines[len(lines)-1])
				}
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			settle(t, base)
		})
	}
}

// TestServeMetaProcsBound pins the meta n bound: n = MaxProcs is taken,
// MaxProcs+1 fails the stream at its meta line, before any replay.
func TestServeMetaProcsBound(t *testing.T) {
	meta := func(id string, n int) Request {
		return Request{Event: &StreamEvent{Stream: id, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: n}}}}
	}
	req := request(t,
		Request{Open: &Open{Stream: "big", Logic: "wec"}}, meta("big", MaxProcs+1),
		Request{Close: &CloseStream{Stream: "big"}},
		Request{Open: &Open{Stream: "max", Logic: "wec"}}, meta("max", MaxProcs),
		Request{Close: &CloseStream{Stream: "max"}})
	got := byStream(t, serveOnce(t, Config{}, req))
	wantErr := fmt.Sprintf(`{"error":{"stream":"big","line":3,"msg":"meta n must be ≤ %d, got %d"}}`+"\n", MaxProcs, MaxProcs+1)
	if len(got["big"]) != 2 || got["big"][1] != wantErr {
		t.Fatalf("stream big got %q, want its opened line and %q", got["big"], wantErr)
	}
	if len(got["max"]) != 2 || !strings.HasPrefix(got["max"][1], `{"done":{"stream":"max","events":0,`) {
		t.Fatalf("stream max got %q, want opened and an empty done", got["max"])
	}
}

// FuzzServeConn serves arbitrary request bytes once on a fresh server and
// then twice on one warm server, whose later connections take its pooled
// sessions and recycled history buffers. ServeConn must return each time,
// nothing may panic, each stream's lines and the connection-level lines
// must be the same in all three transcripts (settledLines), and once both
// servers shut down no goroutine may be left. The seeds are the committed
// golden requests, a negative-process stream, an ill-typed counter read, a
// reused id and a stream abandoned at EOF.
func FuzzServeConn(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "drvserve", "testdata", "*_request.ndjson"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no request testdata: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	hs := `{"config":{"protocol":"` + ProtocolVersion + `"}}` + "\n"
	f.Add([]byte(hs + `{"open":{"stream":"neg","logic":"lin","object":"queue"}}
{"event":{"stream":"neg","kind":"meta","meta":{"n":1}}}
{"event":{"stream":"neg","kind":"sym","proc":-1,"sym":"inv","op":"deq"}}
{"event":{"stream":"neg","kind":"sym","proc":-1,"sym":"res","op":"deq","val":{"t":"int","int":-1}}}
{"close":{"stream":"neg"}}
`))
	f.Add([]byte(hs + `{"open":{"stream":"badread","logic":"wec"}}
{"event":{"stream":"badread","kind":"meta","meta":{"n":1}}}
{"event":{"stream":"badread","kind":"sym","proc":0,"sym":"inv","op":"read"}}
{"event":{"stream":"badread","kind":"sym","proc":0,"sym":"res","op":"read","val":{"t":"unit"}}}
{"close":{"stream":"badread"}}
`))
	reuse := requestRaw(append(streamRequestRaw("a", queueWord()), streamRequestRaw("a", queueWord())...)...)
	f.Add(reuse)
	abandoned := streamRequestRaw("a", queueWord())
	f.Add(requestRaw(abandoned[:len(abandoned)-2]...))

	f.Fuzz(func(t *testing.T, req []byte) {
		base := runtime.NumGoroutine()
		serve := func(srv *Server) map[string][]string {
			var out bytes.Buffer
			served := make(chan error, 1)
			go func() { served <- srv.ServeConn(rw{bytes.NewReader(req), &out}) }()
			select {
			case <-served:
			case <-time.After(30 * time.Second):
				t.Fatal("ServeConn did not return")
			}
			return settledLines(t, out.Bytes())
		}
		shutdown := func(srv *Server) {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{MaxStreamEvents: 1 << 12}
		fresh := New(cfg)
		want := serve(fresh)
		shutdown(fresh)
		warm := New(cfg)
		for run := 1; run <= 2; run++ {
			if got := serve(warm); !reflect.DeepEqual(got, want) {
				t.Fatalf("warm server's run %d differs from a fresh server's:\n got %q\nwant %q", run, got, want)
			}
		}
		shutdown(warm)
		settle(t, base)
	})
}

// settledLines splits response bytes into each stream's lines, keyed by id
// (connection-level lines under ""), without the lines whose presence
// depends on the pacing: process 0's verdicts leave while the stream is
// open, so a stream that fails or is abandoned mid-run keeps however many
// had left. A run of process 0's verdict lines is kept only when a later
// process's verdict or done follows it, which only a replay that ran to
// close sends.
func settledLines(t *testing.T, raw []byte) map[string][]string {
	t.Helper()
	out := byStream(t, raw)
	for id, lines := range out {
		var kept, proc0 []string
		for _, l := range lines {
			r := parseResponses(t, []byte(l))[0]
			switch {
			case r.Verdict != nil && r.Verdict.Proc == 0:
				proc0 = append(proc0, l)
				continue
			case r.Verdict != nil || r.Done != nil:
				kept = append(kept, proc0...)
			}
			kept = append(kept, l)
			proc0 = nil
		}
		out[id] = kept
	}
	return out
}

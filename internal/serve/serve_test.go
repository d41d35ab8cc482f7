package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/explore"
)

// rw glues a buffered request to a response buffer for one-shot ServeConn
// round trips.
type rw struct {
	io.Reader
	io.Writer
}

// request renders envelope lines: the handshake plus the given messages.
func request(t *testing.T, msgs ...Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range append([]Request{{Config: &ClientConfig{Protocol: ProtocolVersion}}}, msgs...) {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// streamRequest renders one full stream: open, meta, the word's symbols,
// close.
func streamRequest(t *testing.T, open Open, n int, w trace.Word) []Request {
	t.Helper()
	msgs := []Request{
		{Open: &open},
		{Event: &StreamEvent{Stream: open.Stream, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: n}}}},
	}
	for _, sym := range w {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, Request{Event: &StreamEvent{Stream: open.Stream, Event: ev}})
	}
	return append(msgs, Request{Close: &CloseStream{Stream: open.Stream}})
}

// serveOnce runs one buffered request through a fresh server and returns the
// raw response bytes.
func serveOnce(t *testing.T, cfg Config, req []byte) []byte {
	t.Helper()
	srv := New(cfg)
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

// parseResponses decodes every response line.
func parseResponses(t *testing.T, raw []byte) []Response {
	t.Helper()
	var out []Response
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var r Response
		if err := dec.Decode(&r); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("response stream does not parse: %v\n%s", err, raw)
		}
		out = append(out, r)
	}
}

// queueWord is a small linearizable queue history over two processes.
func queueWord() trace.Word {
	return trace.NewB().
		Inv(0, "enq", trace.Int(1)).
		Inv(1, "enq", trace.Int(2)).
		Res(0, "enq", trace.Unit{}).
		Res(1, "enq", trace.Unit{}).
		Op(0, "deq", nil, trace.Int(1)).
		Word()
}

func TestServeSingleStream(t *testing.T) {
	req := request(t, streamRequest(t, Open{Stream: "s1", Logic: "lin", Object: "queue"}, 2, queueWord())...)
	raw := serveOnce(t, Config{}, req)
	resps := parseResponses(t, raw)

	if len(resps) < 3 {
		t.Fatalf("got %d responses:\n%s", len(resps), raw)
	}
	if resps[0].Config == nil || resps[0].Config.Protocol != ProtocolVersion {
		t.Fatalf("first response is not the config ack: %+v", resps[0])
	}
	if resps[1].Opened == nil || resps[1].Opened.Stream != "s1" {
		t.Fatalf("second response is not the opened ack: %+v", resps[1])
	}
	last := resps[len(resps)-1]
	if last.Done == nil {
		t.Fatalf("last response is not done: %+v", last)
	}
	if last.Done.Truncated {
		t.Fatal("drained replay reported truncated")
	}
	if last.Done.Events != len(queueWord()) {
		t.Fatalf("done.events = %d, want %d", last.Done.Events, len(queueWord()))
	}
	verdicts := resps[2 : len(resps)-1]
	if len(verdicts) != last.Done.Verdicts || len(verdicts) == 0 {
		t.Fatalf("verdict lines %d vs done.verdicts %d", len(verdicts), last.Done.Verdicts)
	}
	// Verdicts arrive in (proc, index) order with NO count matching.
	no := 0
	prevProc, prevIdx := -1, -1
	for _, r := range verdicts {
		v := r.Verdict
		if v == nil {
			t.Fatalf("mid-stream response is not a verdict: %+v", r)
		}
		if v.Proc < prevProc || (v.Proc == prevProc && v.Index <= prevIdx) {
			t.Fatalf("verdicts out of (proc, index) order: %+v after (%d,%d)", v, prevProc, prevIdx)
		}
		prevProc, prevIdx = v.Proc, v.Index
		if v.Verdict == "NO" {
			no++
		}
	}
	if no != last.Done.NO {
		t.Fatalf("NO lines %d vs done.no %d", no, last.Done.NO)
	}
}

// TestServeMatchesDirectReplay pins the audit contract: the served verdict
// stream is exactly what replaying the recorded input through
// exp/monitor.Run produces.
func TestServeMatchesDirectReplay(t *testing.T) {
	h := queueWord()
	req := request(t, streamRequest(t, Open{Stream: "audit", Logic: "lin", Object: "queue"}, 2, h)...)
	resps := parseResponses(t, serveOnce(t, Config{}, req))

	res, err := monitor.Run(monitor.Config{N: 2, Object: trace.Queue(), Logic: monitor.LogicLin, History: h})
	if err != nil {
		t.Fatal(err)
	}
	var want []VerdictEvent
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			want = append(want, VerdictEvent{
				Stream: "audit", Proc: p, Index: k, Verdict: v.String(),
				Step: res.StepAt[p][k], Hist: res.HistAt[p][k],
			})
		}
	}
	var got []VerdictEvent
	for _, r := range resps {
		if r.Verdict != nil {
			got = append(got, *r.Verdict)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("served %d verdicts, replay has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: served %+v, replay %+v", i, got[i], want[i])
		}
	}
}

// TestServeDeterministicAcrossPools pins byte-identical responses across
// runs and across the server's session pool: a fresh server, and one whose
// idle sessions were warmed by other logics and process counts, serve the
// same bytes.
func TestServeDeterministicAcrossPools(t *testing.T) {
	req := request(t,
		append(streamRequest(t, Open{Stream: "a", Logic: "lin", Object: "queue"}, 2, queueWord()),
			streamRequest(t, Open{Stream: "a", Logic: "sc", Object: "queue"}, 2, queueWord())...)...)
	first := serveOnce(t, Config{}, req)

	warm := New(Config{})
	defer warm.Shutdown(context.Background())
	counter := trace.NewB().Inv(0, "inc", nil).Op(1, "read", nil, trace.Int(0)).Res(0, "inc", trace.Unit{}).Word()
	warmup := request(t, append(streamRequest(t, Open{Stream: "w1", Logic: "wec"}, 3, counter),
		streamRequest(t, Open{Stream: "w2", Logic: "lin", Object: "queue"}, 4, queueWord())...)...)
	for rep := 0; rep < 3; rep++ {
		if err := warm.ServeConn(rw{bytes.NewReader(warmup), io.Discard}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := warm.ServeConn(rw{bytes.NewReader(req), &got}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, got.Bytes()) {
			t.Fatalf("responses differ between a fresh and a warm server (round %d):\n%s\nvs\n%s", rep, first, got.Bytes())
		}
	}
}

// TestServeReopenBehindLongRun reopens a stream id while the id's earlier
// run is still replaying: every response about the reopened id
// — its opened ack, or its open error — must follow the earlier run's done
// line, so a client reusing an id can tell which run each line belongs to.
func TestServeReopenBehindLongRun(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 40; i++ {
		b.Op(0, "write", trace.Int(int64(i)), trace.Unit{}).Op(1, "read", nil, trace.Int(int64(i)))
	}
	long := streamRequest(t, Open{Stream: "a", Logic: "lin", Object: "register"}, 2, b.Word())
	for _, tc := range []struct {
		name   string
		reopen []Request
		want   func(Response) bool
	}{
		{"opened", streamRequest(t, Open{Stream: "a", Logic: "sc", Object: "queue"}, 2, queueWord()),
			func(r Response) bool { return r.Opened != nil }},
		{"error", []Request{{Open: &Open{Stream: "a", Logic: "wat"}}},
			func(r Response) bool { return r.Error != nil }},
	} {
		req := request(t, append(append([]Request(nil), long...), tc.reopen...)...)
		for rep := 0; rep < 20; rep++ {
			resps := parseResponses(t, serveOnce(t, Config{}, req))
			firstDone, reopened := -1, -1
			for i, r := range resps {
				if r.Done != nil && firstDone < 0 {
					firstDone = i
				}
				if i > 1 && tc.want(r) && reopened < 0 {
					reopened = i
				}
			}
			if firstDone < 0 || reopened < 0 || reopened < firstDone {
				t.Fatalf("%s: reopened id's first response at line %d, earlier run's done at line %d:\n%+v",
					tc.name, reopened, firstDone, resps)
			}
		}
	}
}

// TestServeMultiStreamPerStreamDeterminism runs several interleaved streams
// and checks each stream's response subsequence equals its single-stream
// serve, whatever the global interleaving.
func TestServeMultiStreamPerStreamDeterminism(t *testing.T) {
	words := map[string]trace.Word{
		"q1": queueWord(),
		"q2": trace.NewB().Op(0, "enq", trace.Int(9), trace.Unit{}).Op(1, "deq", nil, trace.Int(9)).Word(),
		"c1": trace.NewB().Inv(0, "inc", nil).Op(1, "read", nil, trace.Int(0)).Res(0, "inc", trace.Unit{}).Word(),
	}
	open := map[string]Open{
		"q1": {Stream: "q1", Logic: "lin", Object: "queue"},
		"q2": {Stream: "q2", Logic: "sc", Object: "queue"},
		"c1": {Stream: "c1", Logic: "wec"},
	}
	ids := []string{"q1", "q2", "c1"}

	// Interleave the streams' lines round-robin after opening all three.
	var msgs []Request
	perStream := map[string][]Request{}
	for _, id := range ids {
		perStream[id] = streamRequest(t, open[id], 2, words[id])
	}
	for i := 0; ; i++ {
		progressed := false
		for _, id := range ids {
			if i < len(perStream[id]) {
				msgs = append(msgs, perStream[id][i])
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	interleaved := parseResponses(t, serveOnce(t, Config{}, request(t, msgs...)))

	project := func(resps []Response, id string) []string {
		var out []string
		for _, r := range resps {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case r.Opened != nil && r.Opened.Stream == id,
				r.Verdict != nil && r.Verdict.Stream == id,
				r.Done != nil && r.Done.Stream == id,
				r.Error != nil && r.Error.Stream == id:
				out = append(out, string(b))
			}
		}
		return out
	}
	for _, id := range ids {
		solo := parseResponses(t, serveOnce(t, Config{}, request(t, streamRequest(t, open[id], 2, words[id])...)))
		want := project(solo, id)
		got := project(interleaved, id)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("stream %s projection differs:\n got %v\nwant %v", id, got, want)
		}
		if len(got) == 0 {
			t.Fatalf("stream %s produced no responses", id)
		}
	}
}

// TestIllTypedCounterStreamFailsAlone sends a counter stream whose read
// returns no integer ahead of a valid queue stream on one connection, for
// both counter logics. The bad stream must end in one error line naming the
// symbol instead of crashing its replay, and the valid stream must still
// get the lines it gets alone. The bad stream's replay may report process
// 0's verdict on the increment before it reaches the bad read; that line
// is kept, ahead of the error.
func TestIllTypedCounterStreamFailsAlone(t *testing.T) {
	good := streamRequest(t, Open{Stream: "q", Logic: "lin", Object: "queue"}, 2, queueWord())
	alone := serveOnce(t, Config{}, request(t, good...))
	for logic, read := range map[string]trace.Value{"wec": trace.Unit{}, "sec": nil} {
		bad := trace.NewB().Op(0, trace.OpInc, nil, trace.Unit{}).Op(0, trace.OpRead, nil, read).Word()
		msgs := append(streamRequest(t, Open{Stream: "bad", Logic: logic}, 1, bad), good...)
		var badLines []Response
		var others bytes.Buffer
		raw := serveOnce(t, Config{}, request(t, msgs...))
		for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
			if r := parseResponses(t, line); len(r) == 1 && (r[0].Opened != nil && r[0].Opened.Stream == "bad" ||
				r[0].Verdict != nil && r[0].Verdict.Stream == "bad" ||
				r[0].Error != nil && r[0].Error.Stream == "bad") {
				badLines = append(badLines, r[0])
				continue
			}
			others.Write(line)
		}
		n := len(badLines)
		if n < 2 || badLines[0].Opened == nil || badLines[n-1].Error == nil || !strings.Contains(badLines[n-1].Error.Msg, "symbol 3") {
			t.Fatalf("%s: bad stream got %+v, want an opened line first and one error line naming symbol 3 last", logic, badLines)
		}
		for _, r := range badLines[1 : n-1] {
			if r.Verdict == nil || r.Verdict.Proc != 0 {
				t.Fatalf("%s: bad stream got %+v between its opened and error lines, want only process 0's verdicts", logic, r)
			}
		}
		if !bytes.Equal(others.Bytes(), alone) {
			t.Fatalf("%s: valid stream drifted:\n--- got ---\n%s\n--- alone ---\n%s", logic, others.Bytes(), alone)
		}
	}
}

// TestMalformedStreamErrorIsRuns pins a failed stream's error line to
// exp/monitor.Run's error for the same history: the replay checks each event
// as it arrives and the stream is replayed once. One stream names a process
// beyond its meta n; in the other, a counter read returning a unit comes
// before a response with no invocation, so the first bad event is the read.
// The stream after each must get the lines it gets alone.
func TestMalformedStreamErrorIsRuns(t *testing.T) {
	good := streamRequest(t, Open{Stream: "q", Logic: "lin", Object: "queue"}, 2, queueWord())
	alone := byStream(t, serveOnce(t, Config{}, request(t, good...)))["q"]
	for _, tc := range []struct {
		open Open
		cfg  monitor.Config
		want string
	}{
		{
			Open{Stream: "bad", Logic: "lin", Object: "queue"},
			monitor.Config{N: 2, Logic: monitor.LogicLin, Object: trace.Queue(),
				History: trace.NewB().Op(0, trace.OpEnq, trace.Int(1), trace.Unit{}).Op(2, trace.OpDeq, nil, trace.Int(1)).Word()},
			"names process 2 but N is 2",
		},
		{
			Open{Stream: "bad", Logic: "wec"},
			monitor.Config{N: 2, Logic: monitor.LogicWEC,
				History: trace.NewB().Op(0, trace.OpRead, nil, trace.Unit{}).Res(1, trace.OpInc, trace.Unit{}).Word()},
			"symbol 1: a counter read returns an integer",
		},
	} {
		_, runErr := monitor.Run(tc.cfg)
		if runErr == nil || !strings.Contains(runErr.Error(), tc.want) {
			t.Fatalf("%v: Run error %v, want one containing %q", tc.cfg.History, runErr, tc.want)
		}
		msgs := append(streamRequest(t, tc.open, tc.cfg.N, tc.cfg.History), good...)
		lines := byStream(t, serveOnce(t, Config{}, request(t, msgs...)))
		bad := parseResponses(t, []byte(strings.Join(lines["bad"], "")))
		n := len(bad)
		if n < 2 || bad[0].Opened == nil || bad[n-1].Error == nil || bad[n-1].Error.Msg != runErr.Error() {
			t.Fatalf("%v: bad stream got %+v, want an opened line first and Run's error %q last", tc.cfg.History, bad, runErr)
		}
		for _, r := range bad[1 : n-1] {
			if r.Verdict == nil || r.Verdict.Proc != 0 {
				t.Fatalf("%v: bad stream got %+v between its opened and error lines, want only process 0's verdicts", tc.cfg.History, r)
			}
		}
		if !slices.Equal(lines["q"], alone) {
			t.Fatalf("%v: next stream drifted:\n--- got ---\n%s\n--- alone ---\n%s", tc.cfg.History, lines["q"], alone)
		}
	}
}

// TestServeTruncation pins honest partial verdicts: a max_steps bound that
// cuts the replay still delivers the prefix's verdicts, flagged truncated.
func TestServeTruncation(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 100; i++ {
		b.Op(0, "enq", trace.Int(int64(i)), trace.Unit{})
	}
	h := b.Word()
	req := request(t, streamRequest(t, Open{Stream: "cut", Logic: "lin", Object: "queue", MaxSteps: 30}, 1, h)...)
	resps := parseResponses(t, serveOnce(t, Config{}, req))
	last := resps[len(resps)-1]
	if last.Done == nil || !last.Done.Truncated {
		t.Fatalf("cut replay did not report truncated: %+v", last)
	}
	if last.Done.Events >= len(h) {
		t.Fatalf("cut replay claims %d of %d events", last.Done.Events, len(h))
	}
	if last.Done.Verdicts == 0 {
		t.Fatal("cut replay delivered no partial verdicts")
	}
}

// TestServeProtocolErrors table-tests the error paths of the envelope and
// the per-stream trace discipline.
func TestServeProtocolErrors(t *testing.T) {
	meta := func(id string, n int) Request {
		return Request{Event: &StreamEvent{Stream: id, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: n}}}}
	}
	sym := func(id string) Request {
		return Request{Event: &StreamEvent{Stream: id, Event: trace.Event{Kind: trace.KindSym, Proc: 0, Sym: "inv", Op: "enq"}}}
	}
	openQ := func(id string) Request { return Request{Open: &Open{Stream: id, Logic: "lin", Object: "queue"}} }

	tests := []struct {
		name string
		raw  []byte // raw request bytes; nil means use msgs
		msgs []Request
		// wantErr is a substring of some error response; conn tells whether
		// it must be connection-level (no stream).
		wantErr string
		conn    bool
	}{
		{name: "no handshake", raw: []byte(`{"open":{"stream":"s","logic":"lin"}}` + "\n"), wantErr: "first line must be the config handshake", conn: true},
		{name: "bad version", raw: []byte(`{"config":{"protocol":"v9.9.9"}}` + "\n"), wantErr: `protocol "v9.9.9" not supported`, conn: true},
		{name: "malformed json", raw: append(request(t), []byte("{not json}\n")...), wantErr: "malformed request", conn: true},
		{name: "two fields set", raw: append(request(t), []byte(`{"open":{"stream":"s","logic":"lin"},"close":{"stream":"s"}}`+"\n")...), wantErr: "exactly one of", conn: true},
		{name: "empty line object", raw: append(request(t), []byte("{}\n")...), wantErr: "exactly one of", conn: true},
		{name: "duplicate handshake", msgs: []Request{{Config: &ClientConfig{Protocol: ProtocolVersion}}}, wantErr: "duplicate config handshake", conn: true},
		{name: "unknown logic", msgs: []Request{{Open: &Open{Stream: "s", Logic: "wat"}}}, wantErr: `unknown logic "wat" (want lin, sc, wec, sec or ecledger)`},
		{name: "unknown object", msgs: []Request{{Open: &Open{Stream: "s", Logic: "lin", Object: "wat"}}}, wantErr: `unknown object "wat" (want register, counter, queue, stack, ledger or consensus)`},
		{name: "unknown array", msgs: []Request{{Open: &Open{Stream: "s", Logic: "lin", Object: "queue", Array: "wat"}}}, wantErr: `unknown array "wat" (want atomic, aadgms or collect)`},
		{name: "duplicate open", msgs: []Request{openQ("s"), openQ("s")}, wantErr: `stream "s" is already open`},
		{name: "event for unopened stream", msgs: []Request{sym("ghost")}, wantErr: `event for unopened stream "ghost"`},
		{name: "close for unopened stream", msgs: []Request{{Close: &CloseStream{Stream: "ghost"}}}, wantErr: `close for unopened stream "ghost"`},
		{name: "symbol before meta", msgs: []Request{openQ("s"), sym("s")}, wantErr: "symbol line before the stream's meta header"},
		{name: "duplicate meta", msgs: []Request{openQ("s"), meta("s", 2), meta("s", 2)}, wantErr: "duplicate meta line"},
		{name: "meta without object", msgs: []Request{openQ("s"), {Event: &StreamEvent{Stream: "s", Event: trace.Event{Kind: trace.KindMeta}}}}, wantErr: "meta line carries no meta object"},
		{name: "meta with bad n", msgs: []Request{openQ("s"), meta("s", 0)}, wantErr: "meta n must be ≥ 1"},
		{name: "verdict as input", msgs: []Request{openQ("s"), meta("s", 1), {Event: &StreamEvent{Stream: "s", Event: trace.Event{Kind: trace.KindVerdict, Verdict: "YES"}}}}, wantErr: "verdict lines are server output"},
		{name: "close without meta", msgs: []Request{openQ("s"), {Close: &CloseStream{Stream: "s"}}}, wantErr: "stream closed without a meta header"},
		{name: "ill-formed history", msgs: append([]Request{openQ("s"), meta("s", 1)},
			Request{Event: &StreamEvent{Stream: "s", Event: trace.Event{Kind: trace.KindSym, Proc: 0, Sym: "res", Op: "enq"}}},
			Request{Close: &CloseStream{Stream: "s"}}), wantErr: "not well-formed"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.raw
			if raw == nil {
				raw = request(t, tc.msgs...)
			}
			resps := parseResponses(t, serveOnce(t, Config{}, raw))
			found := false
			for _, r := range resps {
				if r.Error == nil {
					continue
				}
				if !strings.Contains(r.Error.Msg, tc.wantErr) {
					continue
				}
				if tc.conn && r.Error.Stream != "" {
					t.Fatalf("expected a connection-level error, got stream-level: %+v", r.Error)
				}
				found = true
			}
			if !found {
				t.Fatalf("no error response containing %q in:\n%+v", tc.wantErr, resps)
			}
		})
	}
}

// TestObjectNames pins the wire's object table: every object resolves by
// its Name, and so does every object the explorer's registries run.
func TestObjectNames(t *testing.T) {
	names := []string{"register", "counter", "queue", "stack", "ledger", "consensus"}
	for _, fam := range []string{explore.FamObj, explore.FamMsg} {
		names = append(names, explore.Objects(fam)...)
	}
	for _, name := range names {
		if obj, err := objectByName(name); err != nil || obj.Name() != name {
			t.Errorf("objectByName(%q) = %v, %v", name, obj, err)
		}
	}
	if obj, err := objectByName(""); obj != nil || err != nil {
		t.Errorf("objectByName(\"\") = %v, %v; want no object", obj, err)
	}
}

// TestServeFailedStreamIsQuiet pins the no-flood contract: after a stream
// fails, its further events and its close produce no additional responses,
// and the id can be reopened and served.
func TestServeFailedStreamIsQuiet(t *testing.T) {
	sym := Request{Event: &StreamEvent{Stream: "s", Event: trace.Event{Kind: trace.KindSym, Proc: 0, Sym: "inv", Op: "enq"}}}
	msgs := []Request{
		{Open: &Open{Stream: "s", Logic: "lin", Object: "queue"}},
		sym,           // fails: symbol before meta
		sym, sym, sym, // discarded quietly
		{Close: &CloseStream{Stream: "s"}}, // swallowed
	}
	msgs = append(msgs, streamRequest(t, Open{Stream: "s", Logic: "lin", Object: "queue"}, 2, queueWord())...)
	resps := parseResponses(t, serveOnce(t, Config{}, request(t, msgs...)))

	errs, dones := 0, 0
	for _, r := range resps {
		if r.Error != nil {
			errs++
		}
		if r.Done != nil {
			dones++
		}
	}
	if errs != 1 {
		t.Fatalf("got %d error responses, want exactly 1:\n%+v", errs, resps)
	}
	if dones != 1 {
		t.Fatalf("reopened stream was not served: %d done lines", dones)
	}
}

// TestServeStreamEventCap pins the per-stream buffering bound.
func TestServeStreamEventCap(t *testing.T) {
	var msgs []Request
	msgs = append(msgs, Request{Open: &Open{Stream: "s", Logic: "lin", Object: "queue"}})
	msgs = append(msgs, Request{Event: &StreamEvent{Stream: "s", Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: 1}}}})
	for i := 0; i < 5; i++ {
		ev, err := trace.EncodeSymbol(trace.NewInv(0, "enq", trace.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, Request{Event: &StreamEvent{Stream: "s", Event: ev}})
	}
	resps := parseResponses(t, serveOnce(t, Config{MaxStreamEvents: 3}, request(t, msgs...)))
	found := false
	for _, r := range resps {
		if r.Error != nil && strings.Contains(r.Error.Msg, "exceeds the 3-event bound") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no event-cap error in %+v", resps)
	}
}

// TestServeBackpressureCompletes floods a tiny-queued server with many
// streams on several connections and checks every stream is served: bounded
// queues may stall producers but must not deadlock or drop.
func TestServeBackpressureCompletes(t *testing.T) {
	srv := New(Config{WriteDepth: 1})
	defer srv.Shutdown(context.Background())

	const conns, streamsPer = 3, 8
	errc := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		ci := ci
		go func() {
			var msgs []Request
			for si := 0; si < streamsPer; si++ {
				id := fmt.Sprintf("c%d-s%d", ci, si)
				msgs = append(msgs, streamRequestRaw(id, queueWord())...)
			}
			var out bytes.Buffer
			if err := srv.ServeConn(rw{bytes.NewReader(requestRaw(msgs...)), &out}); err != nil {
				errc <- err
				return
			}
			dones := 0
			for _, r := range parseResponsesRaw(out.Bytes()) {
				if r.Done != nil {
					dones++
				}
			}
			if dones != streamsPer {
				errc <- fmt.Errorf("conn %d: served %d of %d streams", ci, dones, streamsPer)
				return
			}
			errc <- nil
		}()
	}
	for i := 0; i < conns; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("backpressure deadlock: connections did not finish")
		}
	}
}

// Raw (non-testing.T) variants for use off the test goroutine.
func requestRaw(msgs ...Request) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range append([]Request{{Config: &ClientConfig{Protocol: ProtocolVersion}}}, msgs...) {
		if err := enc.Encode(m); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func streamRequestRaw(id string, w trace.Word) []Request {
	msgs := []Request{
		{Open: &Open{Stream: id, Logic: "lin", Object: "queue"}},
		{Event: &StreamEvent{Stream: id, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: 2}}}},
	}
	for _, sym := range w {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			panic(err)
		}
		msgs = append(msgs, Request{Event: &StreamEvent{Stream: id, Event: ev}})
	}
	return append(msgs, Request{Close: &CloseStream{Stream: id}})
}

func parseResponsesRaw(raw []byte) []Response {
	var out []Response
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var r Response
		if err := dec.Decode(&r); err != nil {
			return out
		}
		out = append(out, r)
	}
}

// TestServeTCPGracefulDrain serves over real TCP, starts Shutdown while a
// stream's run is in flight, and checks the verdicts are still delivered
// before the server stops.
func TestServeTCPGracefulDrain(t *testing.T) {
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
	if _, err := nc.Write(requestRaw(streamRequestRaw("drain", queueWord())...)); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	// Wait for the config ack so the connection is known to be served, then
	// shut down while the stream may still be in flight; the drain must
	// deliver its done line anyway.
	br := bufio.NewReader(nc)
	ack, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading config ack: %v", err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	resps := parseResponsesRaw(append(ack, rest...))
	if len(resps) == 0 || resps[len(resps)-1].Done == nil {
		t.Fatalf("drained connection did not receive its done line:\n%s%s", ack, rest)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

package serve

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// counterWord is a valid history of ops increment-then-read pairs of one
// process; with bad, read number bad returns no integer.
func counterWord(ops, bad int) trace.Word {
	b := trace.NewB()
	for i := 0; i < ops; i++ {
		var read trace.Value = trace.Int(int64(i + 1))
		if i == bad {
			read = trace.Unit{}
		}
		b.Op(0, trace.OpInc, nil, trace.Unit{}).Op(0, trace.OpRead, nil, read)
	}
	return b.Word()
}

// recycled is one stream of a recycling case.
type recycled struct {
	open   Open
	n      int
	w      trace.Word
	closed bool
}

// want returns the lines a correct server sends for the run, given the
// lines got it sent. A run that ends at close gets its batch replay's lines,
// or, for a history the replay refuses, process 0's verdicts before the
// refusal and then the error line a check of the whole history gives. A run
// still open at EOF gets no done or error line; which of its verdicts left
// first depends on the pacing, so got is all that is wanted of it.
func (r recycled) want(t *testing.T, got []string) []string {
	t.Helper()
	if !r.closed {
		for _, l := range got {
			if strings.HasPrefix(l, `{"done":`) || strings.HasPrefix(l, `{"error":`) {
				t.Fatalf("stream %s, open at EOF, got %s", r.open.Stream, l)
			}
		}
		return got
	}
	logic, err := monitor.ParseLogic(r.open.Logic)
	if err != nil {
		t.Fatal(err)
	}
	object, err := objectByName(r.open.Object)
	if err != nil {
		t.Fatal(err)
	}
	_, err = monitor.Run(monitor.Config{N: r.n, Object: object, Logic: logic, History: r.w})
	if err == nil {
		return batchLines(t, r.open, r.n, r.w)
	}
	want := []string{string(appendResponse(nil, Response{Opened: &Opened{Stream: r.open.Stream}}))}
	for _, l := range got {
		if strings.HasPrefix(l, `{"verdict":{"stream":"`+r.open.Stream+`","proc":0,`) {
			want = append(want, l)
		}
	}
	return append(want, string(appendResponse(nil, Response{Error: &StreamError{Stream: r.open.Stream, Msg: err.Error()}})))
}

// TestSessionRecyclingIsSafe serves, on one warm server, each way a replay
// can hand its session back — a reopened id, a history the replay refuses
// mid-run, a stream abandoned at EOF, whose suspended replay the next
// stream's Open drops, and a long stream — each followed by streams that
// take the pooled sessions. Every stream's lines must equal its lines from
// a fresh server and its batch replay's, and the warm server must have
// pooled sessions to hand on.
func TestSessionRecyclingIsSafe(t *testing.T) {
	queue := func(id string, seed int64) recycled {
		rng := rand.New(rand.NewSource(seed))
		return recycled{Open{Stream: id, Logic: "lin", Object: "queue"}, 3, randomHistory(rng, 3, 20+rng.Intn(30), false), true}
	}
	wec := func(id string, ops, bad int) recycled {
		return recycled{Open{Stream: id, Logic: "wec"}, 1, counterWord(ops, bad), true}
	}
	followers := func(seed int64) []recycled {
		return []recycled{queue("f1", seed), wec("f2", 30, -1), queue("f3", seed+1), queue("f1", seed+2)}
	}
	abandoned := queue("open", 9)
	abandoned.closed = false
	// A process past meta n fails the replay at its first symbol with a
	// message other than the one the whole history's check gives.
	over := queue("over", 7)
	over.n = 2
	cases := []struct {
		name    string
		streams []recycled
	}{
		{"reopened id", []recycled{queue("a", 1), queue("a", 2), wec("a", 25, -1), queue("b", 3)}},
		{"refused mid-replay", []recycled{wec("bad", 40, 20), queue("q", 4), wec("bad", 40, 3), over}},
		{"abandoned at EOF", []recycled{queue("q", 5), abandoned}},
		{"long", []recycled{wec("long", 2098, -1), queue("q", 6)}},
	}

	warm := New(Config{})
	defer warm.Shutdown(context.Background())
	pooled := 0
	for i, tc := range cases {
		for k, streams := range [][]recycled{tc.streams, followers(int64(10 * i))} {
			var msgs []Request
			for _, r := range streams {
				s := streamRequest(t, r.open, r.n, r.w)
				if !r.closed {
					s = s[:len(s)-1]
				}
				msgs = append(msgs, s...)
			}
			req := request(t, msgs...)
			var out bytes.Buffer
			if err := warm.ServeConn(rw{bytes.NewReader(req), &out}); err != nil {
				t.Fatal(err)
			}
			warm.mu.Lock()
			pooled += len(warm.idle)
			warm.mu.Unlock()
			connSettle(t)
			got, fresh := byStream(t, out.Bytes()), byStream(t, serveOnce(t, Config{}, req))
			ids := map[string][]recycled{}
			for _, r := range streams {
				ids[r.open.Stream] = append(ids[r.open.Stream], r)
			}
			for id, runs := range ids {
				if runs[len(runs)-1].closed && !reflect.DeepEqual(got[id], fresh[id]) {
					t.Fatalf("%s, request %d: stream %s on the warm server:\n%s\non a fresh one:\n%s",
						tc.name, k, id, strings.Join(got[id], ""), strings.Join(fresh[id], ""))
				}
				var want []string
				rest := got[id]
				for _, r := range runs {
					n := nextRun(rest)
					want = append(want, r.want(t, rest[:n])...)
					rest = rest[n:]
				}
				if !reflect.DeepEqual(got[id], want) {
					t.Fatalf("%s, request %d: stream %s got:\n%s\nwant:\n%s",
						tc.name, k, id, strings.Join(got[id], ""), strings.Join(want, ""))
				}
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no session was ever pooled")
	}
}

// nextRun returns the index of the opened line that starts a stream id's
// second run in lines, or len(lines).
func nextRun(lines []string) int {
	for i := 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], `{"opened":`) {
			return i
		}
	}
	return len(lines)
}

package monitor_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// queueHistory is a small well-formed concurrent queue history: two
// overlapping enqueues and a dequeue observing the first.
func queueHistory() trace.Word {
	return trace.NewB().
		Inv(0, "enq", trace.Int(1)).
		Inv(1, "enq", trace.Int(2)).
		Res(0, "enq", trace.Unit{}).
		Res(1, "enq", trace.Unit{}).
		Op(2, "deq", nil, trace.Int(1)).
		Word()
}

// counterHistory exercises the counter logics: an inc overlapping two reads.
func counterHistory() trace.Word {
	return trace.NewB().
		Inv(0, "inc", nil).
		Op(1, "read", nil, trace.Int(0)).
		Res(0, "inc", trace.Unit{}).
		Op(1, "read", nil, trace.Int(1)).
		Word()
}

// ledgerHistory exercises the ledger logic: an append and a get.
func ledgerHistory() trace.Word {
	return trace.NewB().
		Op(0, "append", trace.Rec("a"), trace.Unit{}).
		Op(1, "get", nil, trace.Seq{"a"}).
		Word()
}

func TestRunAllLogics(t *testing.T) {
	cases := []struct {
		name string
		cfg  monitor.Config
		// exactNO asserts zero NO reports; the weak deciders (wec, sec) may
		// legitimately report transient NOs on finite prefixes, so for them
		// only drainage and verdict presence are checked.
		exactNO bool
	}{
		{"lin", monitor.Config{N: 3, Object: trace.Queue(), Logic: monitor.LogicLin, History: queueHistory()}, true},
		{"sc", monitor.Config{N: 3, Object: trace.Queue(), Logic: monitor.LogicSC, History: queueHistory()}, true},
		{"wec", monitor.Config{N: 2, Logic: monitor.LogicWEC, History: counterHistory()}, false},
		{"sec", monitor.Config{N: 2, Logic: monitor.LogicSEC, History: counterHistory()}, false},
		{"ecledger", monitor.Config{N: 2, Logic: monitor.LogicECLedger, History: ledgerHistory()}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := monitor.Run(tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Drained {
				t.Fatalf("replay did not drain the history (steps=%d)", res.Steps)
			}
			if res.Procs() != tc.cfg.N {
				t.Fatalf("Procs() = %d, want %d", res.Procs(), tc.cfg.N)
			}
			if tc.exactNO && res.TotalNO() != 0 {
				t.Fatalf("correct history got %d NO reports; verdicts %v", res.TotalNO(), res.Verdicts)
			}
			total := 0
			for p := range res.Verdicts {
				total += len(res.Verdicts[p])
			}
			if total == 0 {
				t.Fatal("no verdicts reported")
			}
		})
	}
}

func TestRunFlagsViolation(t *testing.T) {
	// deq returns the second enqueue while the first is still in the queue:
	// not linearizable for any ordering.
	bad := trace.NewB().
		Op(0, "enq", trace.Int(1), trace.Unit{}).
		Op(0, "enq", trace.Int(2), trace.Unit{}).
		Op(1, "deq", nil, trace.Int(2)).
		Word()
	res, err := monitor.Run(monitor.Config{N: 2, Object: trace.Queue(), Logic: monitor.LogicLin, History: bad})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalNO() == 0 {
		t.Fatal("non-linearizable history got no NO report")
	}
	ok, err := monitor.Linearizable(trace.Queue(), bad)
	if err != nil || ok {
		t.Fatalf("Linearizable = %v, %v; want false, nil", ok, err)
	}
	ok, err = monitor.SeqConsistent(trace.Queue(), bad)
	if err != nil || ok {
		t.Fatalf("SeqConsistent = %v, %v; want false, nil", ok, err)
	}
}

// TestNameTables pins the logic and array names: each value's String
// parses back to it, in declaration order, the parse errors list exactly
// those names, and a value outside the table prints as no name.
func TestNameTables(t *testing.T) {
	logics := []monitor.Logic{monitor.LogicLin, monitor.LogicSC, monitor.LogicWEC, monitor.LogicSEC, monitor.LogicECLedger}
	for i, name := range []string{"lin", "sc", "wec", "sec", "ecledger"} {
		if l := logics[i]; l.String() != name {
			t.Errorf("logic %d prints %q, want %q", l, l.String(), name)
		}
		if got, err := monitor.ParseLogic(name); got != logics[i] || err != nil {
			t.Errorf("ParseLogic(%q) = %v, %v; want %v", name, got, err, logics[i])
		}
	}
	arrays := []monitor.Array{monitor.ArrayAtomic, monitor.ArrayAADGMS, monitor.ArrayCollect}
	for i, name := range []string{"atomic", "aadgms", "collect"} {
		if a := arrays[i]; a.String() != name {
			t.Errorf("array %d prints %q, want %q", a, a.String(), name)
		}
		if got, err := monitor.ParseArray(name); got != arrays[i] || err != nil {
			t.Errorf("ParseArray(%q) = %v, %v; want %v", name, got, err, arrays[i])
		}
	}
	if got, err := monitor.ParseArray(""); got != monitor.ArrayAtomic || err != nil {
		t.Errorf("ParseArray(\"\") = %v, %v; want the default atomic", got, err)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{second(monitor.ParseLogic("x")), `unknown logic "x" (want lin, sc, wec, sec or ecledger)`},
		{second(monitor.ParseLogic(monitor.Logic(42).String())), `unknown logic "logic(42)" (want lin, sc, wec, sec or ecledger)`},
		{second(monitor.ParseArray("z")), `unknown array "z" (want atomic, aadgms or collect)`},
		{second(monitor.ParseArray(monitor.Array(42).String())), `unknown array "array(42)" (want atomic, aadgms or collect)`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("parse error %v, want %s", tc.err, tc.want)
		}
	}
}

// second returns a two-result call's second result.
func second[T any](_ T, err error) error { return err }

func TestRunValidation(t *testing.T) {
	good := queueHistory()
	cases := []struct {
		name string
		cfg  monitor.Config
		want string
	}{
		{"zero procs", monitor.Config{Logic: monitor.LogicLin, Object: trace.Queue(), History: good}, "N must be"},
		{"missing object", monitor.Config{N: 3, Logic: monitor.LogicLin, History: good}, "requires an Object"},
		{"unknown logic", monitor.Config{N: 3, History: good}, "unknown logic"},
		{"unknown array", monitor.Config{N: 3, Logic: monitor.LogicWEC, History: good, Array: 42}, "unknown array"},
		{"too few procs", monitor.Config{N: 1, Logic: monitor.LogicWEC, History: counterHistory()}, "names process 1 but N is 1"},
		{"ill-formed", monitor.Config{N: 2, Logic: monitor.LogicWEC,
			History: trace.Word{trace.NewRes(0, "read", trace.Int(0))}}, "not well-formed"},
		// Only the per-event check stands between this history and a
		// replay that panics in the adversary.
		{"negative proc", monitor.Config{N: 1, Logic: monitor.LogicLin, Object: trace.Queue(),
			History: trace.NewB().Op(-1, "deq", nil, trace.Empty).Word()}, "process -1"},
		// The counter monitors read every read response as an integer.
		{"non-integer read", monitor.Config{N: 1, Logic: monitor.LogicWEC,
			History: trace.NewB().Op(0, "inc", nil, trace.Unit{}).Op(0, "read", nil, trace.Unit{}).Word()}, "symbol 3"},
		{"read without value", monitor.Config{N: 1, Logic: monitor.LogicSEC,
			History: trace.NewB().Op(0, "read", nil, nil).Word()}, "symbol 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := monitor.Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
	for _, h := range []trace.Word{trace.Word{trace.NewRes(0, "read", trace.Int(0))}} {
		if _, err := monitor.Linearizable(trace.Queue(), h); err == nil {
			t.Fatal("Linearizable accepted ill-formed history")
		}
		if _, err := monitor.SeqConsistent(trace.Queue(), h); err == nil {
			t.Fatal("SeqConsistent accepted ill-formed history")
		}
	}
}

// TestOfflineOraclesJudgePrefixes pins the offline oracles to the judge's
// per-prefix reading of the definitions: the read returns 1 before any write
// is invoked, so the prefix ending at its response is not sequentially
// consistent, although the whole history is (the write may be placed
// first).
func TestOfflineOraclesJudgePrefixes(t *testing.T) {
	w := trace.NewB().
		Op(0, trace.OpRead, nil, trace.Int(1)).
		Op(1, trace.OpWrite, trace.Int(1), trace.Unit{}).
		Word()
	if got := w.String(); got != "<0:read() >0:read=1 <1:write(1) >1:write=()" {
		t.Fatalf("history = %s", got)
	}
	if ok, err := monitor.SeqConsistent(trace.Register(), w); err != nil || ok {
		t.Errorf("SeqConsistent = %v, %v; want false, nil", ok, err)
	}
	if ok, err := monitor.Linearizable(trace.Register(), w); err != nil || ok {
		t.Errorf("Linearizable = %v, %v; want false, nil", ok, err)
	}
	if ok, err := monitor.SeqConsistent(trace.Register(), w[2:]); err != nil || !ok {
		t.Errorf("SeqConsistent(write alone) = %v, %v; want true, nil", ok, err)
	}
}

// TestOfflineOraclesAcceptAnyProcessIDs pins that the offline oracles judge
// a history by its operations, not by how its processes are numbered: a
// history naming process 1<<40 is decided like its densely numbered
// original, without sizing anything by the id.
func TestOfflineOraclesAcceptAnyProcessIDs(t *testing.T) {
	const far = 1 << 40
	for _, tc := range []struct {
		w    trace.Word
		want bool
	}{
		{trace.NewB().Op(far, trace.OpWrite, trace.Int(1), trace.Unit{}).Op(0, trace.OpRead, nil, trace.Int(1)).Word(), true},
		{trace.NewB().Op(0, trace.OpRead, nil, trace.Int(1)).Op(far, trace.OpWrite, trace.Int(1), trace.Unit{}).Word(), false},
	} {
		if ok, err := monitor.Linearizable(trace.Register(), tc.w); err != nil || ok != tc.want {
			t.Errorf("Linearizable(%v) = %v, %v; want %v, nil", tc.w, ok, err, tc.want)
		}
		if ok, err := monitor.SeqConsistent(trace.Register(), tc.w); err != nil || ok != tc.want {
			t.Errorf("SeqConsistent(%v) = %v, %v; want %v, nil", tc.w, ok, err, tc.want)
		}
	}
}

// TestReplayKeepsEachProcessHistory pins what the replay exhibits: the word
// cursor hands each process its recorded operations in order, but
// Result.History is the timed adversary's outer word, which may interleave
// the processes differently. On the register word the offline oracles
// reject, the replay moves the write's invocation before the read's
// response, so each process's projection is the recorded one while the
// history as a whole is not, and both predictive logics answer YES
// throughout: a YES speaks of the exhibited history.
func TestReplayKeepsEachProcessHistory(t *testing.T) {
	w := trace.NewB().
		Op(0, trace.OpRead, nil, trace.Int(1)).
		Op(1, trace.OpWrite, trace.Int(1), trace.Unit{}).
		Word()
	for _, logic := range []monitor.Logic{monitor.LogicLin, monitor.LogicSC} {
		res, err := monitor.Run(monitor.Config{N: 2, Object: trace.Register(), Logic: logic, History: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.History.String(); got != "<0:read() <1:write(1) >0:read=1 >1:write=()" {
			t.Errorf("%v: exhibited history = %s", logic, got)
		}
		if res.History.Equal(w) {
			t.Errorf("%v: exhibited history equals the recorded one; the pin no longer shows the reordering", logic)
		}
		for p := 0; p < 2; p++ {
			if got, want := res.History.Project(p), w.Project(p); !got.Equal(want) {
				t.Errorf("%v: process %d exhibited %v, recorded %v", logic, p, got, want)
			}
			for _, v := range res.Verdicts[p] {
				if v != monitor.Yes {
					t.Errorf("%v: process %d verdicts %v, want YES only", logic, p, res.Verdicts[p])
					break
				}
			}
		}
	}
}

// TestSessionReplayDeterministic pins the embedder determinism contract: the
// same history replayed through a reused session, a fresh session, and the
// one-shot Run yields byte-identical results.
func TestSessionReplayDeterministic(t *testing.T) {
	cfg := monitor.Config{N: 3, Object: trace.Queue(), Logic: monitor.LogicLin, History: queueHistory()}

	encode := func(res *monitor.Result) []byte {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		if err := w.WriteWord(res.History); err != nil {
			t.Fatal(err)
		}
		for p := range res.Verdicts {
			for k, v := range res.Verdicts[p] {
				if err := w.WriteVerdict(p, v.String(), res.StepAt[p][k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	s := monitor.NewSession()
	defer s.Close()
	res1, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := encode(res1)
	verdicts := make([][]monitor.Verdict, len(res1.Verdicts))
	for p := range res1.Verdicts {
		verdicts[p] = append([]monitor.Verdict(nil), res1.Verdicts[p]...)
	}

	res2, err := s.Run(cfg) // reused session
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(res2); !bytes.Equal(first, got) {
		t.Fatalf("session reuse changed the result:\n%s\nvs\n%s", first, got)
	}
	if !reflect.DeepEqual(verdicts, res2.Verdicts) {
		t.Fatalf("session reuse changed verdicts: %v vs %v", verdicts, res2.Verdicts)
	}

	res3, err := monitor.Run(cfg) // one-shot path
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(res3); !bytes.Equal(first, got) {
		t.Fatalf("one-shot Run diverged from session run:\n%s\nvs\n%s", first, got)
	}
}

// TestSessionReusableAfterClose pins Close's contract: a closed session runs
// again with the result a never-closed session gives, and closing it twice is
// safe.
func TestSessionReusableAfterClose(t *testing.T) {
	cfg := monitor.Config{N: 3, Object: trace.Queue(), Logic: monitor.LogicLin, History: queueHistory()}
	ref := monitor.NewSession()
	defer ref.Close()
	want, err := ref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := monitor.NewSession()
	if _, err := s.Run(cfg); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Run after Close diverged:\n%+v\nvs\n%+v", *want, *got)
	}
	s.Close()
	s.Close()
}

func TestRecorderMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRecorder(0)", func() { monitor.NewRecorder(0) })
	rec := monitor.NewRecorder(2)
	mustPanic("out-of-range Invoke", func() { rec.Invoke(2, "op", nil) })
	mustPanic("Respond without Invoke", func() { rec.Respond(0, nil) })
	rec.Invoke(0, "op", nil)
	mustPanic("double Invoke", func() { rec.Invoke(0, "op", nil) })
	rec.Respond(0, nil)
	if rec.Len() != 2 {
		t.Fatalf("Len=%d after one operation", rec.Len())
	}
}

// TestRecorderPendingOperation checks that a history with an in-flight
// operation is still well-formed and monitorable — monitors handle pending
// invocations.
func TestRecorderPendingOperation(t *testing.T) {
	rec := monitor.NewRecorder(2)
	rec.Record(0, "enq", trace.Int(5), func() trace.Value { return trace.Unit{} })
	rec.Invoke(1, "deq", nil) // never responds
	h := rec.History()
	if err := trace.WellFormed(h); err != nil {
		t.Fatalf("pending operation made history ill-formed: %v", err)
	}
	res, err := monitor.Run(monitor.Config{N: 2, Object: trace.Queue(), Logic: monitor.LogicLin, History: h})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNO() != 0 {
		t.Fatalf("pending-deq history judged NO: %v", res.Verdicts)
	}
}

// TestRunTruncated pins the truncation contract: a replay cut by MaxSteps
// returns the partial Result together with an error wrapping ErrTruncated,
// and Result.Drained is false; the same history with room to finish drains
// cleanly. Regression test for the silently-cut replays drvserve relies on
// reporting honestly.
func TestRunTruncated(t *testing.T) {
	b := trace.NewB()
	for i := 0; i < 200; i++ {
		b.Op(0, "enq", trace.Int(int64(i)), trace.Unit{})
	}
	h := b.Word()

	s := monitor.NewSession()
	defer s.Close()

	res, err := s.Run(monitor.Config{N: 1, Object: trace.Queue(), Logic: monitor.LogicLin, History: h, MaxSteps: 25})
	if err == nil {
		t.Fatal("truncated replay returned no error")
	}
	if !errors.Is(err, monitor.ErrTruncated) {
		t.Fatalf("error %q does not wrap ErrTruncated", err)
	}
	if res == nil {
		t.Fatal("truncated replay returned no partial Result")
	}
	if res.Drained {
		t.Fatal("truncated replay reports Drained")
	}
	if len(res.History) >= len(h) {
		t.Fatalf("truncated replay exhibited %d of %d events", len(res.History), len(h))
	}

	full, err := s.Run(monitor.Config{N: 1, Object: trace.Queue(), Logic: monitor.LogicLin, History: h})
	if err != nil {
		t.Fatalf("unbounded replay: %v", err)
	}
	if !full.Drained {
		t.Fatal("unbounded replay did not drain")
	}
	if len(full.History) != len(h) {
		t.Fatalf("unbounded replay exhibited %d of %d events", len(full.History), len(h))
	}
}

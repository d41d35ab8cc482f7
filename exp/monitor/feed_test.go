package monitor_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// snapshot copies what a Result says, so results of different runs can be
// compared after the sessions that own them move on.
type snapshot struct {
	History  trace.Word
	Verdicts [][]monitor.Verdict
	StepAt   [][]int
	HistAt   [][]int
	PulledAt [][]int
	Steps    int
	Drained  bool
}

func snap(res *monitor.Result) *snapshot {
	if res == nil {
		return nil
	}
	s := &snapshot{History: res.History.Clone(), Steps: res.Steps, Drained: res.Drained}
	for p := range res.Verdicts {
		s.Verdicts = append(s.Verdicts, append([]monitor.Verdict{}, res.Verdicts[p]...))
		s.StepAt = append(s.StepAt, append([]int{}, res.StepAt[p]...))
		s.HistAt = append(s.HistAt, append([]int{}, res.HistAt[p]...))
		s.PulledAt = append(s.PulledAt, append([]int{}, res.PulledAt[p]...))
	}
	return s
}

// report is one verdict as a Feed reported it, with the number of events
// pushed when it was reported; a report during Close counts one more.
type report struct {
	proc, index int
	v           monitor.Verdict
	step, hist  int
	pushed      int
}

// feed replays w through a Feed of s, one Push per event, and returns Close's
// Result and error with the reports.
func feed(s *monitor.Session, cfg monitor.Config, w trace.Word) (*monitor.Result, error, []report) {
	var got []report
	pushed := 0
	f := s.Open(cfg, func(proc, index int, v monitor.Verdict, step, hist int) {
		got = append(got, report{proc, index, v, step, hist, pushed})
	})
	for _, sym := range w {
		pushed++
		f.Push(sym)
	}
	pushed++
	res, err := f.Close()
	return res, err, got
}

// randomOps builds a random well-formed history of n processes over the
// object's operations: each process alternates invocations and responses,
// and the processes' steps interleave at random.
func randomOps(rng *rand.Rand, n, ops int, counter bool) trace.Word {
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
		case trace.OpRead:
			ret = trace.Int(int64(rng.Intn(3)))
		case "deq":
			ret = trace.Int(int64(rng.Intn(3)))
			if rng.Intn(3) == 0 {
				ret = trace.Empty
			}
		}
		b.Res(p, pending[p], ret)
		pending[p] = ""
	}
	return b.Word()
}

// TestFeedMatchesRun is the push entry point's differential: fed the same
// history one event at a time, a Feed returns the Result Run returns, with
// the same error, and reports exactly that Result's verdicts, each
// process's in index order, with the steps and history lengths it records.
// Each verdict is reported during the Push of the last event the replay had
// taken when it reported it (Result.PulledAt), or at Close if that is the
// history's last.
func TestFeedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type tc struct {
		cfg monitor.Config
	}
	var cases []tc
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(3)
		cfg := monitor.Config{N: n}
		switch i % 3 {
		case 0:
			cfg.Logic, cfg.Object = monitor.LogicLin, trace.Queue()
			cfg.History = randomOps(rng, n, 2+rng.Intn(8), false)
		case 1:
			cfg.Logic, cfg.Object = monitor.LogicSC, trace.Queue()
			cfg.History = randomOps(rng, n, 2+rng.Intn(8), false)
		case 2:
			cfg.Logic = monitor.LogicWEC
			cfg.History = randomOps(rng, n, 2+rng.Intn(8), true)
		}
		if i%5 == 4 {
			cfg.MaxSteps = 10 + rng.Intn(30) // often cuts the replay
		}
		cases = append(cases, tc{cfg})
	}
	cases = append(cases,
		tc{monitor.Config{N: 3, Logic: monitor.LogicSEC, History: counterHistory()}},
		tc{monitor.Config{N: 2, Logic: monitor.LogicECLedger, History: ledgerHistory()}},
		tc{monitor.Config{N: 3, Logic: monitor.LogicLin, Object: trace.Queue(), History: trace.Word{}}},
	)

	s := monitor.NewSession()
	defer s.Close()
	truncated := 0
	for i, c := range cases {
		want, wantErr := monitor.Run(c.cfg)
		if want == nil {
			t.Fatalf("case %d: Run: %v", i, wantErr)
		}
		if wantErr != nil {
			truncated++
		}
		wantSnap := snap(want)

		cfg := c.cfg
		h := cfg.History
		cfg.History = nil
		res, err, got := feed(s, cfg, h)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("case %d: Feed error %v, Run error %v", i, err, wantErr)
		}
		if gotSnap := snap(res); !reflect.DeepEqual(gotSnap, wantSnap) {
			t.Fatalf("case %d: Feed result differs from Run's:\n got %+v\nwant %+v", i, gotSnap, wantSnap)
		}
		seen := make([]int, len(wantSnap.Verdicts))
		for _, r := range got {
			if r.proc < 0 || r.proc >= len(seen) || r.index != seen[r.proc] {
				t.Fatalf("case %d: report %+v out of order", i, r)
			}
			seen[r.proc]++
			if r.v != wantSnap.Verdicts[r.proc][r.index] || r.step != wantSnap.StepAt[r.proc][r.index] ||
				r.hist != wantSnap.HistAt[r.proc][r.index] {
				t.Fatalf("case %d: report %+v differs from the Result", i, r)
			}
			if pulled := wantSnap.PulledAt[r.proc][r.index]; r.pushed != pulled && (r.pushed != len(h)+1 || pulled != len(h)) {
				t.Fatalf("case %d: report %+v came after %d pushes; the replay had taken %d events", i, r, r.pushed, pulled)
			}
		}
		for p := range seen {
			if seen[p] != len(wantSnap.Verdicts[p]) {
				t.Fatalf("case %d: process %d reported %d of %d verdicts", i, p, seen[p], len(wantSnap.Verdicts[p]))
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no case was cut by MaxSteps")
	}
}

// TestFeedChecksEachEvent pins what a Feed does with a history that turns
// out invalid: it takes every event pushed, reports no verdict after the
// first bad event, and Close returns a nil Result with an error naming it.
// Run checks a history the same way, so random words, often ill-formed and
// sometimes naming a process beyond N, must be rejected by a Feed exactly
// when Run rejects them, with Run's error. A Feed opened on part of a
// history and pushed the rest returns Run's Result for the whole.
func TestFeedChecksEachEvent(t *testing.T) {
	s := monitor.NewSession()
	defer s.Close()
	pushAll := func(cfg monitor.Config) (*monitor.Result, error, []report) {
		h := cfg.History
		cfg.History = nil
		return feed(s, cfg, h)
	}

	// Two good operations of process 0, then a counter read returning a
	// unit, then more: the verdicts on the good prefix may be reported, and
	// none after.
	bad := trace.NewB().
		Op(0, trace.OpInc, nil, trace.Unit{}).
		Op(0, trace.OpRead, nil, trace.Int(1)).
		Op(0, trace.OpRead, nil, trace.Unit{}).
		Op(0, trace.OpInc, nil, trace.Unit{}).
		Word()
	cfg := monitor.Config{N: 1, Logic: monitor.LogicWEC, History: bad}
	res, err, got := pushAll(cfg)
	_, runErr := monitor.Run(cfg)
	if res != nil || err == nil || runErr == nil || err.Error() != runErr.Error() || !strings.Contains(err.Error(), "symbol 5") {
		t.Fatalf("Feed = %v, %v; want a nil Result and Run's error %v", res, err, runErr)
	}
	if len(got) > 2 {
		t.Fatalf("Feed reported %d verdicts; the good prefix has 2 operations", len(got))
	}
	for _, r := range got {
		if r.pushed > 5 {
			t.Fatalf("report %+v after the bad event", r)
		}
	}

	good := bad[:4]
	want, err := s.Run(monitor.Config{N: 1, Logic: monitor.LogicWEC, History: good})
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := snap(want)
	f := s.Open(monitor.Config{N: 1, Logic: monitor.LogicWEC, History: good[:1]}, nil)
	for _, sym := range good[1:] {
		f.Push(sym)
	}
	if res, err := f.Close(); err != nil || !reflect.DeepEqual(snap(res), wantSnap) {
		t.Fatalf("Feed opened on a prefix = %+v, %v; want %+v", snap(res), err, wantSnap)
	}

	rng := rand.New(rand.NewSource(2))
	ops := []string{"enq", "deq"}
	for i := 0; i < 400; i++ {
		var w trace.Word
		for k := rng.Intn(8); k > 0; k-- {
			sym := trace.NewInv(rng.Intn(3), ops[rng.Intn(2)], trace.Int(1))
			if rng.Intn(2) == 0 {
				sym = trace.NewRes(rng.Intn(3), ops[rng.Intn(2)], trace.Unit{})
			}
			w = append(w, sym)
		}
		cfg := monitor.Config{N: 2, Logic: monitor.LogicLin, Object: trace.Queue(), History: w}
		_, runErr := monitor.Run(cfg)
		_, err, _ := pushAll(cfg)
		if (err == nil) != (runErr == nil) {
			t.Fatalf("%v: Feed error %v, Run error %v", w, err, runErr)
		}
		if runErr != nil && err.Error() != runErr.Error() {
			t.Fatalf("%v: Feed error %q, Run error %q", w, err, runErr)
		}
	}
}

// TestFeedEndsWithItsRun pins that a Feed whose session has moved on — to
// another Open, a Run or Close — panics on Push and Close rather than
// driving the session's current run, and that the current run is
// unharmed.
func TestFeedEndsWithItsRun(t *testing.T) {
	w := trace.NewB().
		Op(0, trace.OpInc, nil, trace.Unit{}).
		Op(1, trace.OpRead, nil, trace.Int(1)).
		Word()
	cfg := monitor.Config{N: 2, Logic: monitor.LogicWEC}
	want, err := monitor.Run(monitor.Config{N: 2, Logic: monitor.LogicWEC, History: w})
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := snap(want)
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}

	s := monitor.NewSession()
	defer s.Close()
	for _, next := range []struct {
		name string
		move func()
	}{
		{"Open", func() { s.Open(cfg, nil) }},
		{"Run", func() { s.Run(cfg) }},
		{"Close", s.Close},
	} {
		old := s.Open(cfg, nil)
		old.Push(w[0])
		next.move()
		panics("Push after the session's "+next.name, func() { old.Push(w[1]) })
		panics("Close after the session's "+next.name, func() { old.Close() })
	}

	// A stale Feed's attempts leave the live one's run as it was.
	old := s.Open(cfg, nil)
	live := s.Open(cfg, nil)
	live.Push(w[0])
	panics("a replaced Feed's Push", func() { old.Push(w[1]) })
	for _, sym := range w[1:] {
		live.Push(sym)
	}
	panics("a replaced Feed's Close", func() { old.Close() })
	if res, err := live.Close(); err != nil || !reflect.DeepEqual(snap(res), wantSnap) {
		t.Fatalf("live Feed = %+v, %v; want %+v", snap(res), err, wantSnap)
	}
}

package monitor_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

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

// report is one verdict as Stream reported it.
type report struct {
	proc, index int
	v           monitor.Verdict
	step, hist  int
}

// paced supplies w's events from another goroutine that sleeps a random few
// microseconds before some of them, so the replay often waits for input. It
// also counts the calls that returned an event.
func paced(w trace.Word, rng *rand.Rand) (next func() (trace.Symbol, bool), calls *int) {
	ch := make(chan trace.Symbol)
	gaps := make([]time.Duration, len(w))
	for i := range gaps {
		if rng.Intn(3) == 0 {
			gaps[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
	}
	go func() {
		for i, sym := range w {
			time.Sleep(gaps[i])
			ch <- sym
		}
		close(ch)
	}()
	n := 0
	return func() (trace.Symbol, bool) {
		sym, ok := <-ch
		if ok {
			n++
		}
		return sym, ok
	}, &n
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

// TestStreamMatchesRun is the streaming entry point's differential: fed the
// same history at a random pace, Stream returns the Result Run returns, with
// the same error, and reports exactly that Result's verdicts, each
// process's in index order, with the steps and history lengths it records.
func TestStreamMatchesRun(t *testing.T) {
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
		next, calls := paced(h, rng)
		var got []report
		res, err := s.Stream(cfg, next, func(proc, index int, v monitor.Verdict, step, hist int) {
			got = append(got, report{proc, index, v, step, hist})
		})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("case %d: Stream error %v, Run error %v", i, err, wantErr)
		}
		if *calls != len(h) {
			t.Fatalf("case %d: Stream took %d of %d events", i, *calls, len(h))
		}
		if gotSnap := snap(res); !reflect.DeepEqual(gotSnap, wantSnap) {
			t.Fatalf("case %d: Stream result differs from Run's:\n got %+v\nwant %+v", i, gotSnap, wantSnap)
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

// TestStreamChecksEachEvent pins what Stream does with a history that turns
// out invalid: it takes every event next supplies, reports no verdict after
// the first bad event, and returns a nil Result with an error naming it.
// Run checks a history the same way, so random words, often ill-formed and
// sometimes naming a process beyond N, must be rejected by Stream exactly
// when Run rejects them, with Run's error.
func TestStreamChecksEachEvent(t *testing.T) {
	s := monitor.NewSession()
	defer s.Close()
	stream := func(cfg monitor.Config) (*monitor.Result, error, []report, int) {
		h := cfg.History
		cfg.History = nil
		i := 0
		var got []report
		res, err := s.Stream(cfg, func() (trace.Symbol, bool) {
			if i == len(h) {
				return trace.Symbol{}, false
			}
			i++
			return h[i-1], true
		}, func(proc, index int, v monitor.Verdict, step, hist int) {
			got = append(got, report{proc, index, v, step, hist})
		})
		return res, err, got, i
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
	res, err, got, took := stream(cfg)
	_, runErr := monitor.Run(cfg)
	if res != nil || err == nil || runErr == nil || err.Error() != runErr.Error() || !strings.Contains(err.Error(), "symbol 5") {
		t.Fatalf("Stream = %v, %v; want a nil Result and Run's error %v", res, err, runErr)
	}
	if took != len(bad) {
		t.Fatalf("Stream took %d of %d events", took, len(bad))
	}
	if len(got) > 2 {
		t.Fatalf("Stream reported %d verdicts; the good prefix has 2 operations", len(got))
	}

	if _, err := s.Stream(monitor.Config{N: 1, Logic: monitor.LogicWEC, History: bad}, nil, nil); err == nil {
		t.Fatal("Stream accepted a Config with a History")
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
		_, err, _, took := stream(cfg)
		if (err == nil) != (runErr == nil) {
			t.Fatalf("%v: Stream error %v, Run error %v", w, err, runErr)
		}
		if took != len(w) {
			t.Fatalf("%v: Stream took %d of %d events", w, took, len(w))
		}
		if runErr != nil && err.Error() != runErr.Error() {
			t.Fatalf("%v: Stream error %q, Run error %q", w, err, runErr)
		}
	}
}

package sched_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	imonitor "github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// pushCase is one replay of the push ≡ batch differential.
type pushCase struct {
	logic    monitor.Logic
	object   trace.Object // lin and sc only
	kind     adversary.ArrayKind
	n        int
	maxSteps int
	w        trace.Word
}

func (c pushCase) String() string {
	name := "-"
	if c.object != nil {
		name = c.object.Name()
	}
	return fmt.Sprintf("%v/%s/%v n=%d max=%d %v", c.logic, name, c.kind, c.n, c.maxSteps, c.w)
}

// pushReport is one verdict as a run reported it.
type pushReport struct {
	proc, index int
	v           monitor.Verdict
	step, hist  int
}

// pushSnapshot copies what a Result says.
type pushSnapshot struct {
	History                  trace.Word
	Verdicts                 [][]monitor.Verdict
	StepAt, HistAt, PulledAt [][]int
	Steps                    int
	Drained                  bool
}

func snapshotOf(res *monitor.Result) pushSnapshot {
	s := pushSnapshot{History: res.History.Clone(), Steps: res.Steps, Drained: res.Drained}
	for p := range res.Verdicts {
		s.Verdicts = append(s.Verdicts, append([]monitor.Verdict{}, res.Verdicts[p]...))
		s.StepAt = append(s.StepAt, append([]int{}, res.StepAt[p]...))
		s.HistAt = append(s.HistAt, append([]int{}, res.HistAt[p]...))
		s.PulledAt = append(s.PulledAt, append([]int{}, res.PulledAt[p]...))
	}
	return s
}

// batchRun replays w on a run that never runs dry: an internal/monitor
// Session over a script source, built as exp/monitor builds its replays.
func batchRun(s *imonitor.Session, c pushCase, w trace.Word) (pushSnapshot, []pushReport) {
	adv := s.Cursor(c.n, adversary.NewScriptSource(w))
	tau := s.Timed(c.n, adv, c.kind)
	var m imonitor.Monitor
	switch c.logic {
	case monitor.LogicLin:
		m = imonitor.NewLin(c.object, tau, c.kind)
	case monitor.LogicSC:
		m = imonitor.NewSC(c.object, tau, c.kind)
	case monitor.LogicWEC:
		m = imonitor.NewWEC(c.kind)
	case monitor.LogicSEC:
		m = imonitor.NewSEC(tau, c.kind)
	case monitor.LogicECLedger:
		m = imonitor.NewECLed(c.kind)
	}
	var reps []pushReport
	res := s.Run(imonitor.Config{
		N:       c.n,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		MaxSteps: c.maxSteps,
		Report: func(proc, index int, v monitor.Verdict, step, hist int) {
			reps = append(reps, pushReport{proc, index, v, step, hist})
		},
	})
	return snapshotOf(res), reps
}

// pushed replays c.w through an exp/monitor Feed, one Push per event.
func pushed(s *monitor.Session, c pushCase) (*monitor.Result, error, []pushReport) {
	array, err := monitor.ParseArray(c.kind.String())
	if err != nil {
		panic(err)
	}
	var reps []pushReport
	f := s.Open(monitor.Config{N: c.n, Object: c.object, Logic: c.logic, Array: array, MaxSteps: c.maxSteps},
		func(proc, index int, v monitor.Verdict, step, hist int) {
			reps = append(reps, pushReport{proc, index, v, step, hist})
		})
	for _, sym := range c.w {
		f.Push(sym)
	}
	res, err := f.Close()
	return res, err, reps
}

// checkPush is the differential for one case. A well-formed word's Feed must
// report the batch run's verdicts in the batch run's order and close with
// its Result. A malformed word's Feed must fail with exp/monitor.Run's
// error, after reporting a prefix of the batch run of the word's good
// prefix that holds every verdict the replay reported before taking that
// prefix's last event. The batch runs must never suspend.
func checkPush(t *testing.T, batch *imonitor.Session, push *monitor.Session, c pushCase) {
	t.Helper()
	array, _ := monitor.ParseArray(c.kind.String())
	cfg := monitor.Config{N: c.n, Object: c.object, Logic: c.logic, Array: array, MaxSteps: c.maxSteps, History: c.w}
	_, runErr := monitor.Run(cfg)
	res, err, got := pushed(push, c)

	good := c.w
	if runErr != nil && res == nil {
		if err == nil || err.Error() != runErr.Error() {
			t.Fatalf("%v: Feed error %v, Run error %v", c, err, runErr)
		}
		// The first bad event is the one whose check fails alone.
		for k := range c.w {
			if _, err := monitor.Run(monitor.Config{N: c.n, Object: c.object, Logic: c.logic, Array: array, MaxSteps: c.maxSteps, History: c.w[:k+1]}); err != nil && err.Error() == runErr.Error() {
				good = c.w[:k]
				break
			}
		}
	} else if (err == nil) != (runErr == nil) || err != nil && err.Error() != runErr.Error() {
		t.Fatalf("%v: Feed error %v, Run error %v", c, err, runErr)
	}

	r0, p0 := sched.Suspensions()
	want, wantReps := batchRun(batch, c, good)
	if r1, p1 := sched.Suspensions(); r1 != r0 || p1 != p0 {
		t.Fatalf("%v: the batch run suspended", c)
	}

	if res == nil {
		if len(got) > len(wantReps) || !slices.Equal(got, wantReps[:len(got)]) {
			t.Fatalf("%v: the failed Feed reported\n%v\nnot a prefix of the batch run's\n%v", c, got, wantReps)
		}
		for _, r := range wantReps[len(got):] {
			if want.PulledAt[r.proc][r.index] < len(good) {
				t.Fatalf("%v: the failed Feed did not report %+v, which the replay reported after %d of %d events", c, r, want.PulledAt[r.proc][r.index], len(good))
			}
		}
		return
	}
	if !slices.Equal(got, wantReps) {
		t.Fatalf("%v: Feed reported\n%v\nbatch run reported\n%v", c, got, wantReps)
	}
	if snap := snapshotOf(res); !reflect.DeepEqual(snap, want) {
		t.Fatalf("%v: Feed result\n%+v\nbatch result\n%+v", c, snap, want)
	}
}

// wordFrom builds a history of n processes for the case's logic from data:
// each byte is one event of process byte mod n+1, an invocation or the
// response to the process's pending one. A byte naming process n gives a
// symbol of process n when its top bit is set (beyond N), and one of
// process 0 otherwise. Bytes with both top bits set and nothing pending
// give a response with no invocation, and a counter read whose byte has
// bits 2–5 set returns a unit: the word is then malformed.
func wordFrom(c pushCase, data []byte) trace.Word {
	var w trace.Word
	pending := make([]string, c.n+1)
	for _, x := range data {
		p := int(x) % (c.n + 1)
		if p == c.n && x&0x80 == 0 {
			p = 0
		}
		v := trace.Int(int64(x>>4) % 4)
		if pending[p] == "" && x&0xc0 == 0xc0 {
			w = append(w, trace.NewRes(p, trace.OpRead, v))
			continue
		}
		if op := pending[p]; op != "" {
			var ret trace.Value = trace.Unit{}
			switch op {
			case trace.OpRead:
				ret = v
				if x&0x3c == 0x3c {
					ret = trace.Unit{}
				}
			case trace.OpDeq:
				ret = v - 1 // -1 is trace.Empty
			case trace.OpGet:
				ret = trace.Seq{"a", "b"}[:int(v)%3]
			}
			w = append(w, trace.NewRes(p, op, ret))
			pending[p] = ""
			continue
		}
		update := x&0x08 == 0
		var op string
		var arg trace.Value
		switch {
		case c.logic == monitor.LogicECLedger && update:
			op, arg = trace.OpAppend, trace.Rec("ab"[int(v)%2:int(v)%2+1])
		case c.logic == monitor.LogicECLedger:
			op = trace.OpGet
		case c.object == nil && update:
			op = trace.OpInc
		case c.object != nil && c.object.Name() == "queue" && update:
			op, arg = trace.OpEnq, v
		case c.object != nil && c.object.Name() == "queue":
			op = trace.OpDeq
		case c.object != nil && update:
			op, arg = trace.OpWrite, v
		default:
			op = trace.OpRead
		}
		w = append(w, trace.NewInv(p, op, arg))
		pending[p] = op
	}
	return w
}

// pushLogics are the five logics with the objects the differential runs
// them over.
var pushLogics = []struct {
	logic  monitor.Logic
	object trace.Object
}{
	{monitor.LogicLin, trace.Queue()},
	{monitor.LogicLin, trace.Register()},
	{monitor.LogicSC, trace.Queue()},
	{monitor.LogicSC, trace.Register()},
	{monitor.LogicWEC, nil},
	{monitor.LogicSEC, nil},
	{monitor.LogicECLedger, nil},
}

var pushKinds = []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayAADGMS, adversary.ArrayCollect}

// TestPushMatchesBatch is the push ≡ batch differential: every logic under
// every announcement array, over the committed drvserve histories and
// random words, well-formed and malformed, some cut by a step bound. The
// replays must run dry at both of the cursor's pulls — a runnability
// re-read and a read-ahead mid-step — and the suspension counters must show
// that they did.
func TestPushMatchesBatch(t *testing.T) {
	batch := imonitor.NewSession()
	defer batch.Close()
	push := monitor.NewSession()
	defer push.Close()
	r0, p0 := sched.Suspensions()

	paths, err := filepath.Glob(filepath.Join("..", "..", "cmd", "drvserve", "testdata", "*.jsonl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no drvserve histories: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, kind := range pushKinds {
			for _, logic := range []monitor.Logic{monitor.LogicLin, monitor.LogicSC} {
				checkPush(t, batch, push, pushCase{logic: logic, object: trace.Queue(), kind: kind, n: tr.Meta.N, w: tr.Word})
			}
		}
	}

	rng := rand.New(rand.NewSource(66))
	malformed := 0
	for i := 0; i < 60; i++ {
		for _, l := range pushLogics {
			for _, kind := range pushKinds {
				c := pushCase{logic: l.logic, object: l.object, kind: kind, n: 1 + rng.Intn(3)}
				if rng.Intn(5) == 0 {
					c.maxSteps = 5 + rng.Intn(60)
				}
				data := make([]byte, rng.Intn(24))
				rng.Read(data)
				if i%2 == 0 {
					for k := range data {
						data[k] &= 0x1f // no bit that makes a word malformed
					}
				}
				c.w = wordFrom(c, data)
				if trace.WellFormed(c.w) != nil {
					malformed++
				}
				checkPush(t, batch, push, c)
			}
		}
	}
	if malformed == 0 {
		t.Fatal("no random word was malformed")
	}
	r1, p1 := sched.Suspensions()
	if r1 == r0 || p1 == p0 {
		t.Fatalf("suspensions at a dry re-read %d, mid-step %d: each site must be exercised", r1-r0, p1-p0)
	}
	t.Logf("suspensions at a dry re-read %d, mid-step %d", r1-r0, p1-p0)
}

// FuzzPushMatchesBatch runs the push ≡ batch differential on arbitrary
// bytes: the first three choose the logic and object, the array, and the
// process count and step bound; the rest are the word's events (wordFrom).
func FuzzPushMatchesBatch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0x10, 0x21, 0x02, 0x13, 0x24, 0x05})
	f.Add([]byte{4, 1, 2, 0x00, 0x01, 0x02, 0x0a, 0x0b, 0x0c, 0x03, 0x04})
	f.Add([]byte{5, 2, 0x82, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{6, 0, 1, 0x01, 0x02, 0x3f, 0x04, 0xc5})
	batch := imonitor.NewSession()
	defer batch.Close()
	push := monitor.NewSession()
	defer push.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		l := pushLogics[int(data[0])%len(pushLogics)]
		c := pushCase{logic: l.logic, object: l.object, kind: pushKinds[int(data[1])%len(pushKinds)], n: 1 + int(data[2])%3}
		if data[2]&0x80 != 0 {
			c.maxSteps = 5 + int(data[2]>>3)%64
		}
		c.w = wordFrom(c, data[3:])
		checkPush(t, batch, push, c)
	})
}

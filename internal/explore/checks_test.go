package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// projectedSourcePrefix is the source-prefix oracle checkSourcePrefix
// streams: materialise the first 8·len(History)+256 source symbols, then
// compare per-process projections. It is the differential reference.
func projectedSourcePrefix(out *Outcome, lb adversary.Labeled, timed bool, res *monitor.Result) {
	src := lb.New()
	var w trace.Word
	limit := 8*len(res.History) + 256
	for len(w) < limit {
		sym, ok := src.Next()
		if !ok {
			break
		}
		w = append(w, sym)
	}
	if !timed && len(out.Spec.Crashes) == 0 {
		if len(w) < len(res.History) || !res.History.Equal(w[:len(res.History)]) {
			out.diverge(CheckSourcePrefix, "history is not a verbatim prefix of the source word")
		}
		return
	}
	for p := 0; p < out.Spec.N; p++ {
		hp := res.History.Project(p)
		sp := w.Project(p)
		if len(hp) > len(sp) || !hp.Equal(sp[:len(hp)]) {
			out.diverge(CheckSourcePrefix, "process %d history projection is not a prefix of the source projection", p)
		}
	}
}

// exhibited builds a history the way the adversaries can: per process a
// prefix of the source projection, interleaved at random (Aτ reorders
// across processes; crashes cut a process short). verbatim instead keeps a
// prefix of the source word itself.
func exhibited(rng *rand.Rand, lb adversary.Labeled, n, length int, verbatim bool) trace.Word {
	src := lb.New()
	var w trace.Word
	for len(w) < 2*length {
		sym, ok := src.Next()
		if !ok {
			break
		}
		w = append(w, sym)
	}
	if verbatim {
		return w[:min(length, len(w))]
	}
	queues := make([]trace.Word, n)
	for p := range queues {
		q := w.Project(p)
		queues[p] = q[:rng.Intn(len(q)+1)]
	}
	var h trace.Word
	for {
		var live []int
		for p, q := range queues {
			if len(q) > 0 {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			return h
		}
		p := live[rng.Intn(len(live))]
		h = append(h, queues[p][0])
		queues[p] = queues[p][1:]
	}
}

// perturb changes one symbol of h the way a broken cursor could: drop it,
// swap it with a later symbol of the same process, change its value, or
// move it to another process.
func perturb(rng *rand.Rand, h trace.Word, n int) trace.Word {
	h = h.Clone()
	if len(h) == 0 {
		return h
	}
	i := rng.Intn(len(h))
	switch rng.Intn(4) {
	case 0:
		return append(h[:i], h[i+1:]...)
	case 1:
		for j := i + 1; j < len(h); j++ {
			if h[j].Proc == h[i].Proc {
				h[i], h[j] = h[j], h[i]
				break
			}
		}
	case 2:
		h[i].Val = trace.Int(-7)
	default:
		h[i].Proc = (h[i].Proc + 1) % n
	}
	return h
}

// TestCheckSourcePrefixMatchesProjection pins the streaming source-prefix
// oracle to the projection reference, divergence list for divergence list,
// on clean and perturbed histories over every language's sources, through
// both the verbatim (untimed, crash-free) and the per-process path.
func TestCheckSourcePrefixMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	diverged := 0
	for _, l := range lang.All() {
		for _, n := range []int{2, 3} {
			for _, lb := range l.Sources(n, int64(n)) {
				for trial := 0; trial < 12; trial++ {
					timed, crashes := true, []Crash(nil)
					switch trial % 3 {
					case 0:
						timed = false
					case 1:
						timed, crashes = false, []Crash{{Step: 1, Proc: 0}}
					}
					verbatim := !timed && crashes == nil
					h := exhibited(rng, lb, n, 1+rng.Intn(120), verbatim)
					if trial >= 6 {
						h = perturb(rng, h, n)
					}
					spec := Spec{N: n, Crashes: crashes}
					res := &monitor.Result{History: h}
					got, want := &Outcome{Spec: spec}, &Outcome{Spec: spec}
					checkSourcePrefix(got, lb, timed, res)
					projectedSourcePrefix(want, lb, timed, res)
					if !reflect.DeepEqual(got.Divergences, want.Divergences) {
						t.Fatalf("%s/%s n=%d trial %d: streamed %v, projected %v\nhistory %v",
							l.Name, lb.Name, n, trial, got.Divergences, want.Divergences, h)
					}
					switch {
					case len(want.Divergences) == 0:
					case trial < 6:
						t.Errorf("%s/%s n=%d trial %d: an unperturbed history diverged: %v", l.Name, lb.Name, n, trial, want.Divergences)
					default:
						diverged++
					}
				}
			}
		}
	}
	if diverged == 0 {
		t.Error("no perturbed history diverged; the differential compares only clean runs")
	}
	t.Logf("%d perturbed histories diverged", diverged)
}

// cutLedgerSpec is a stale-gets LIN_LED run whose cursor schedule cuts it,
// at 462 steps, between a response that first exposes the stale get and the
// round that would judge it: 56 verdicts, none NO. A few steps later the
// same spec draws its first NO (470 steps), and many by 1000 steps.
const cutLedgerSpec = "drv1:LIN_LED/stale-gets:n=4:seed=8391272313533008978:pol=cursor:steps=%d"

func TestClassJudgesOnlyVerdictCoveredSketch(t *testing.T) {
	// The PSD Out-side oracle obliges a NO only for the sketch of responses
	// some verdict covered; a response received after its process's last
	// verdict must not turn an honest cut run into a class divergence.
	s, err := ParseSpec(fmt.Sprintf(cutLedgerSpec, 462))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdicts != 56 || out.NOs != 0 {
		t.Fatalf("premise: want 56 verdicts and 0 NO, got %d and %d", out.Verdicts, out.NOs)
	}
	if len(out.Divergences) != 0 {
		t.Errorf("cut run diverged: %v", out.Divergences)
	}
}

func TestJudgeCountsUnjustifiedNOWithoutSketch(t *testing.T) {
	// One rule for every check that reaches core.Eval: a NO on a word in the
	// language is justified only by a sketch that violates it, and a sketch
	// that cannot be built (incomparable views, a torn collected set)
	// justifies nothing.
	read := func(v int) trace.Word {
		return trace.Word{
			trace.NewInv(0, trace.OpWrite, trace.Int(1)), trace.NewRes(0, trace.OpWrite, trace.Unit{}),
			trace.NewInv(1, trace.OpRead, nil), trace.NewRes(1, trace.OpRead, trace.Int(v)),
		}
	}
	res := &monitor.Result{History: read(1), Verdicts: [][]trace.Verdict{{trace.Yes}, {trace.No}}}
	r := Runner{Session: monitor.NewSession()}
	defer r.Session.Close()
	judgeLIN := lang.Judge{Cond: lang.LIN, Object: trace.Register()}
	for _, c := range []struct {
		name   string
		sketch func(bool) (trace.Word, error)
		want   bool
	}{
		{"unbuildable sketch", func(bool) (trace.Word, error) { return nil, errors.New("incomparable views") }, true},
		{"linearizable sketch", func(bool) (trace.Word, error) { return read(1), nil }, true},
		{"violating sketch", func(bool) (trace.Word, error) { return read(7), nil }, false},
	} {
		out := &Outcome{}
		r.judge(out, CheckMonitorLin, "", core.Eval{Class: core.PSD, Judge: judgeLIN, Sketch: c.sketch}, res, true)
		if got := len(out.Divergences) > 0; got != c.want {
			t.Errorf("%s: divergences %v, want diverged=%v", c.name, out.Divergences, c.want)
		}
	}
}

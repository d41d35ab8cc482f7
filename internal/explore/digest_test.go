package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// pair is a Value type the digest encoder does not know, so it falls back to
// the value's String.
type pair struct{ a, b int }

func (v pair) String() string           { return fmt.Sprintf("<%d,%d>", v.a, v.b) }
func (v pair) Equal(o trace.Value) bool { w, ok := o.(pair); return ok && v == w }

func TestDigestSymbolEncoderMatchesString(t *testing.T) {
	// The digest hashes exactly the text Symbol.String renders; the encoder
	// must agree with it byte for byte on every value shape.
	vals := []trace.Value{
		trace.Int(0), trace.Int(42), trace.Int(-7), trace.Empty,
		trace.Rec("r1"), trace.Rec(""),
		trace.Seq{}, trace.Seq(nil), trace.Seq{"a"}, trace.Seq{"r1", "r2", "r3"},
		trace.Unit{}, nil, pair{3, -4},
	}
	for _, v := range vals {
		for _, s := range []trace.Symbol{
			trace.NewInv(0, trace.OpWrite, v),
			trace.NewRes(12, trace.OpGet, v),
			{Proc: 2, Op: "odd", Val: v}, // neither kind: String's fallback branch
		} {
			if got, want := string(appendSymbol(nil, s)), s.String(); got != want {
				t.Errorf("appendSymbol(%#v) = %q, want %q", s, got, want)
			}
		}
	}
}

// fmtDigest is the digest as first written with fmt: the reference the
// buffer encoder must reproduce, so reports, replay lines and corpus pins
// keep their digests.
func fmtDigest(res *monitor.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d\nhist=%s\n", res.Steps, res.History)
	for p := range res.Verdicts {
		fmt.Fprintf(h, "p%d:", p)
		for k, v := range res.Verdicts[p] {
			fmt.Fprintf(h, " %s@%d/%d", v, res.StepAt[p][k], res.HistAt[p][k])
		}
		fmt.Fprintln(h)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

func TestDigestMatchesFmtReference(t *testing.T) {
	// Every language source's monitored run, plus a hand-built result with
	// the value shapes and verdicts no source emits, hashes to the digest
	// the fmt reference computes.
	sc := newRunScratch()
	for _, l := range lang.All() {
		for _, lb := range l.Sources(3, 5) {
			s := Spec{Lang: l.Name, Source: lb.Name, N: 3, Seed: 5, Policy: PolRandom, Steps: 300}
			adv := adversary.NewA(s.N, lb.New())
			tau := adversary.NewTimed(s.N, adv, adversary.ArrayAtomic)
			var svc adversary.Service = adv
			if classOf(l).Predictive() {
				svc = tau
			}
			res := monitor.Run(monitor.Config{
				N:       s.N,
				Monitor: experiment.Decider(l, tau),
				NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
					return svc, []int{adv.Register(rt)}
				},
				Policy:   func(aux []int) sched.Policy { return s.policy(sc.rng, aux) },
				MaxSteps: s.Steps,
			})
			if got, want := sc.digest(res), fmtDigest(res); got != want {
				t.Errorf("%s: digest %s, fmt reference %s", s, got, want)
			}
		}
	}
	res := &monitor.Result{
		History: trace.Word{
			trace.NewInv(0, trace.OpEnq, trace.Int(-3)),
			trace.NewInv(1, trace.OpDeq, nil),
			trace.NewRes(1, trace.OpDeq, trace.Empty),
			trace.NewRes(0, trace.OpEnq, pair{1, 2}),
		},
		Verdicts: [][]trace.Verdict{{trace.Yes, trace.Maybe}, nil, {trace.No}},
		StepAt:   [][]int{{3, 9}, nil, {12}},
		HistAt:   [][]int{{1, 4}, nil, {4}},
		Steps:    12,
	}
	if got, want := sc.digest(res), fmtDigest(res); got != want {
		t.Errorf("hand-built result: digest %s, fmt reference %s", got, want)
	}
}

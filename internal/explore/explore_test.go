package explore

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestSpecStringRoundTrip(t *testing.T) {
	// Every generated spec must survive the one-line encoding unchanged —
	// the corpus and replay machinery depend on it.
	for i := 0; i < 200; i++ {
		s := NewSpec(2026, i, GenConfig{MaxCrashes: 3})
		parsed, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("spec %d %q: %v", i, s.String(), err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("round trip changed %q into %q", s.String(), parsed.String())
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"drv0:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10",
		"drv1:WEC_COUNT:n=3:seed=1:pol=random:steps=10",
		"drv1:WEC_COUNT/exact:n=0:seed=1:pol=random:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=0",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=sloppy:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:crash=9@5",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:crash=0@99",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:crash=0@5extra",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:crash=0@10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=0@1O0",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:bogus=1",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=biased/1.50:steps=10",
		// NaN fails every range comparison, so the bias check must use the
		// negated in-range form to reject it.
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=biased/NaN:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=biased/-Inf:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random/0.50:steps=10",
		// Duplicate fields would silently overwrite the first value.
		"drv1:WEC_COUNT/exact:n=3:n=4:seed=1:pol=random:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:seed=2:pol=random:steps=10",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=10:crash=0@5:crash=1@6",
		// Crash schedules must be in canonical step-then-process order with
		// one crash per process; out-of-order or duplicated schedules would
		// make two spec strings name one execution.
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=1@50,0@20",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=1@20,0@20",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=0@20,0@50",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=0@20,0@20",
		// Trailing garbage in crash= fields.
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=0@20,",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:crash=0@2 0",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", in)
		}
	}
}

func TestSpecBiasExactRoundTrip(t *testing.T) {
	// The FormatFloat('g', -1) encoding must make String↔ParseSpec exact for
	// ANY bias in [0,1] — in particular off-grid biases, which the old %.2f
	// quantization rejected.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		s := Spec{Lang: "WEC_COUNT", Source: "exact", N: 3, Seed: rng.Int63(),
			Policy: PolBiased, Bias: rng.Float64(), Steps: 100}
		parsed, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("bias %v: %v", s.Bias, err)
		}
		if parsed.Bias != s.Bias || parsed.String() != s.String() {
			t.Fatalf("bias %v did not round-trip exactly: %q parsed to %+v", s.Bias, s.String(), parsed)
		}
	}
	// Old two-decimal specs still parse (and re-render normalized).
	legacy, err := ParseSpec("drv1:WEC_COUNT/exact:n=3:seed=1:pol=biased/0.50:steps=10")
	if err != nil {
		t.Fatalf("legacy two-decimal bias rejected: %v", err)
	}
	if legacy.Bias != 0.5 {
		t.Fatalf("legacy bias parsed to %v, want 0.5", legacy.Bias)
	}
	if got := legacy.String(); got != "drv1:WEC_COUNT/exact:n=3:seed=1:pol=biased/0.5:steps=10" {
		t.Fatalf("legacy spec re-rendered as %q", got)
	}
}

func TestExecuteRejectsUnknownLangAndSource(t *testing.T) {
	if _, err := Execute(Spec{Lang: "NO_SUCH", Source: "exact", N: 2, Policy: PolRandom, Steps: 10}); err == nil {
		t.Error("unknown language accepted")
	}
	if _, err := Execute(Spec{Lang: "WEC_COUNT", Source: "no-such", N: 2, Policy: PolRandom, Steps: 10}); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestExecuteDeterministicDigest(t *testing.T) {
	// The same spec must reproduce the same execution bit for bit; the
	// digest covers the history and every verdict's step and history index.
	specs := []string{
		"drv1:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600",
		"drv1:LIN_REG/atomic:n=3:seed=7:pol=bursty:steps=500",
		"drv1:SEC_COUNT/over-read:n=2:seed=7:pol=biased/0.60:steps=2100",
		"drv1:EC_LED/gossip-converge:n=3:seed=7:pol=cursor:steps=800:crash=1@222",
	}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s then %s across two executions", in, a.Digest, b.Digest)
		}
	}
}

// sweepSize returns the scenario count for sweep tests: small in -short,
// fuller at full depth.
func sweepSize() int {
	if testing.Short() {
		return 40
	}
	return 300
}

func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	// The folded report must be byte-identical for every worker count —
	// the same property drvtable guarantees for Table 1.
	n := sweepSize()
	var renders []string
	for _, workers := range []int{1, 4} {
		rep, err := Explore(Options{
			Master: 3, Scenarios: n, Workers: workers,
			Gen: GenConfig{MaxCrashes: 2}, Shrink: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, string(js))
	}
	if renders[0] != renders[1] {
		t.Errorf("workers=1 and workers=4 folded different reports:\n%s\n%s", renders[0], renders[1])
	}
}

// explorePooledMatchesFresh runs the sweep on Explore's pooled runners,
// then re-executes every scenario it ran, and re-shrinks every reproducer
// it reported, on a fresh Runner{} (no session, no pooled substrate): the
// outcomes and reproducers must be identical. It returns the pooled
// sweep's marshalled report.
func explorePooledMatchesFresh(t *testing.T, opts Options) string {
	t.Helper()
	outs := make([]*Outcome, opts.Scenarios)
	opts.OnScenario = func(i int, out *Outcome) { outs[i] = out }
	rep, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range outs {
		want, err := Runner{}.Execute(got.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Fatalf("scenario %d: pooled outcome\n%s\nfresh outcome\n%s", i, g, w)
		}
	}
	reshrink := func(spec, shrunk string, still []Divergence, shrink func(Spec, Runner, int) (Spec, []Divergence)) {
		if shrunk == "" {
			return
		}
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshStill := shrink(s, Runner{}, opts.ShrinkBudget)
		if fresh.String() != shrunk || mustJSON(t, freshStill) != mustJSON(t, still) {
			t.Fatalf("%s: pooled shrink %s %v, fresh shrink %s %v", spec, shrunk, still, fresh, freshStill)
		}
	}
	for _, f := range rep.Failures {
		reshrink(f.Spec, f.Shrunk, f.ShrunkDivergences, ShrinkSpec)
	}
	for _, b := range rep.Bugs {
		reshrink(b.Spec, b.Shrunk, b.ShrunkFailures, ShrinkBugSpec)
	}
	return mustJSON(t, rep)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

func TestExplorePooledMatchesFresh(t *testing.T) {
	// Pooled runtime+session, substrate and checker reuse are optimizations,
	// never a semantic knob: for every scenario family, every scenario a
	// pooled sweep runs must produce exactly a fresh runner's outcome, and
	// the folded report must not depend on the worker count.
	n := sweepSize() / 2
	for _, fam := range []string{FamLang, FamObj, FamMsg} {
		t.Run(fam, func(t *testing.T) {
			gen := GenConfig{MaxCrashes: 2, Families: []string{fam}}
			var renders []string
			for _, workers := range []int{1, 4} {
				renders = append(renders, explorePooledMatchesFresh(t, Options{
					Master: 5, Scenarios: n, Workers: workers, Gen: gen, Shrink: true,
				}))
			}
			if renders[1] != renders[0] {
				t.Fatalf("workers=4 folded a different report:\n%s\nvs\n%s", renders[1], renders[0])
			}
		})
	}
}

func TestShippedMonitorsHaveNoDivergence(t *testing.T) {
	// The headline differential claim: across random schedules, crashes and
	// sources, the shipped monitors never contradict the oracles. Any
	// failure here is either a monitor bug or an oracle-model bug — both
	// worth a corpus entry once understood.
	rep, err := Explore(Options{
		Master: 1, Scenarios: sweepSize(), Workers: 4,
		Gen: GenConfig{MaxCrashes: 2}, Replay: !testing.Short(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("divergence on shipped monitors: %s %v", f.Spec, f.Divergences)
	}
	// The sweep must actually exercise the differential surface.
	for _, name := range []string{CheckWellFormed, CheckSourcePrefix, CheckOwnSafety, CheckLabelSafety, CheckClass} {
		if rep.Checks[name] == 0 {
			t.Errorf("check %s never ran", name)
		}
	}
	if rep.Crashed == 0 {
		t.Error("no crash scenarios generated")
	}
}

func TestGeneratedSpecsRespectConfig(t *testing.T) {
	cfg := GenConfig{Langs: []string{"WEC_COUNT", "LIN_REG"}, MaxCrashes: 1, MaxSteps: 900}
	for i := 0; i < 100; i++ {
		s := NewSpec(5, i, cfg)
		if s.Lang != "WEC_COUNT" && s.Lang != "LIN_REG" {
			t.Fatalf("spec %d picked language %s outside the filter", i, s.Lang)
		}
		if s.Steps > 900 {
			t.Fatalf("spec %d has %d steps above the cap", i, s.Steps)
		}
		if len(s.Crashes) > 1 {
			t.Fatalf("spec %d has %d crashes above the cap", i, len(s.Crashes))
		}
		if err := s.validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
	}
	for _, tc := range []struct {
		cfg  GenConfig
		want string
	}{
		{GenConfig{Langs: []string{"NOPE"}}, `unknown language "NOPE"`},
		// A repeated filter entry would reweigh the draws.
		{GenConfig{Families: []string{FamLang, FamLang}}, `scenario family "lang" listed twice`},
		{GenConfig{Langs: []string{"LIN_REG", "LIN_REG", "SC_REG"}}, `language "LIN_REG" listed twice`},
		{GenConfig{Families: []string{FamObj}, Objects: []string{"queue", "stack", "queue"}}, `object "queue" listed twice`},
		{GenConfig{Families: []string{FamObj}, Impls: []string{"lock", "lock"}}, `implementation "lock" listed twice`},
		{GenConfig{Families: []string{FamMsg}, NetOrders: []string{"fifo", "lifo", "fifo"}}, `network order "fifo" listed twice`},
	} {
		if err := tc.cfg.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: validate() = %v, want an error naming %s", tc.cfg, err, tc.want)
		}
	}
}

func TestReportChecksAccounting(t *testing.T) {
	// A crash scenario must skip the label oracles and still run the
	// structural ones.
	s, err := ParseSpec("drv1:WEC_COUNT/exact:n=3:seed=9:pol=random:steps=2600:crash=0@400")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Divergences) != 0 {
		t.Fatalf("unexpected divergences: %v", out.Divergences)
	}
	ran := strings.Join(out.Ran, ",")
	for _, want := range []string{CheckWellFormed, CheckSourcePrefix, CheckOwnSafety, CheckCrashQuiet} {
		if !strings.Contains(ran, want) {
			t.Errorf("check %s did not run on a crash scenario (ran: %s)", want, ran)
		}
	}
	skipped := strings.Join(out.Skipped, ",")
	for _, want := range []string{CheckLabelSafety, CheckClass} {
		if !strings.Contains(skipped, want) {
			t.Errorf("check %s was not skipped on a crash scenario (skipped: %s)", want, skipped)
		}
	}
}

package explore

// Tests for the object-execution family: spec round trips, execution
// determinism (pooled and not), the oracle split between divergences and
// bug findings, the acceptance pin — the explorer finds the seeded-bug
// implementations and shrinks the findings to small reproducers — and the
// monitor axis catching a broken monitor on real executions.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/drv-go/drv/internal/monitor"
)

// objGen is the object-family generator config used across these tests.
func objGen() GenConfig {
	return GenConfig{Families: []string{FamObj}, MaxCrashes: 2}
}

func TestObjSpecStringRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := NewSpec(2077, i, objGen())
		if s.Fam() != FamObj {
			t.Fatalf("spec %d is not an object scenario: %s", i, s)
		}
		parsed, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("spec %d %q: %v", i, s.String(), err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("round trip changed %q into %q", s.String(), parsed.String())
		}
		if !strings.HasPrefix(s.String(), objSpecVersion+":") {
			t.Fatalf("object spec %q does not carry the %s tag", s.String(), objSpecVersion)
		}
	}
}

func TestParseSpecRejectsMalformedObj(t *testing.T) {
	bad := []string{
		// The object family and the workload fields are drv2-only grammar.
		"drv1:obj/queue/lifo:n=2:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:ops=4",
		"drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:mb=0.5",
		// Head shape.
		"drv2:obj/queue:n=2:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		"drv2:obj//lifo:n=2:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		// Unknown object / implementation.
		"drv2:obj/deque/lock:n=2:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		"drv2:obj/queue/nope:n=2:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		// Workload bounds (and the NaN trick, as for the policy bias).
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=100:ops=0:mb=0.5",
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=100:ops=65:mb=0.5",
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=100:ops=4:mb=1.5",
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=100:ops=4:mb=NaN",
		// A language spec must not carry workload fields even under drv2.
		"drv2:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:ops=4:mb=0.5",
		// Missing workload fields on an object spec.
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=100",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", in)
		}
	}
	// The drv2 tag is a superset grammar: a language spec parses under it
	// and re-renders version-minimally with the drv1 tag.
	s, err := ParseSpec("drv2:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100")
	if err != nil {
		t.Fatalf("drv2-tagged language spec rejected: %v", err)
	}
	if got := s.String(); got != "drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100" {
		t.Errorf("drv2-tagged language spec re-rendered as %q", got)
	}
}

func TestSpecVersionTagMutationRejected(t *testing.T) {
	// Corpora replay across explorer versions; a mutated version tag must
	// fail loudly instead of replaying under the wrong grammar.
	valid := []string{
		"drv1:WEC_COUNT/exact:n=3:seed=7:pol=random:steps=2600",
		"drv2:obj/queue/lifo:n=2:seed=7:pol=random:steps=900:ops=4:mb=0.5",
		"drv3:msg/register/abd:n=3:seed=7:pol=random:steps=2000:ops=4:mb=0.5:net=lifo",
	}
	for _, line := range valid {
		if _, err := ParseSpec(line); err != nil {
			t.Fatalf("valid spec %q rejected: %v", line, err)
		}
		for _, tag := range []string{"drv0", "drv4", "DRV1", "drv11", "drv", ""} {
			mutated := tag + line[strings.Index(line, ":"):]
			if _, err := ParseSpec(mutated); err == nil {
				t.Errorf("ParseSpec(%q) accepted a mutated version tag", mutated)
			}
		}
	}
}

func TestObjExecuteDeterministicAndPooled(t *testing.T) {
	// The determinism contract extends to object scenarios: same spec, same
	// digest and findings, pooled or not, run after run on one session.
	sess := monitor.NewSession()
	defer sess.Close()
	pooled := Runner{Session: sess}
	for i := 0; i < 12; i++ {
		s := NewSpec(31, i, objGen())
		a, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pooled.Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if ka, kb := outcomeKey(a), outcomeKey(b); ka != kb {
			t.Errorf("%s: unpooled %s vs pooled %s", s, ka, kb)
		}
	}
}

func TestObjCorrectImplsClean(t *testing.T) {
	// The correct implementation of every object must run clean across
	// seeds and crash schedules: no divergence (its guarantees hold) and no
	// oracle failure (it has no planted bug to find).
	for _, object := range Objects(FamObj) {
		impl := ImplsOf(FamObj, object)[0] // correct variant first, by convention
		for seed := int64(1); seed <= 4; seed++ {
			s := Spec{Family: FamObj, Object: object, Impl: impl, N: 3, Seed: seed,
				Policy: PolRandom, Steps: 1200, OpsPerProc: 4, MutBias: 0.5}
			if seed%2 == 0 {
				s.Crashes = []Crash{{Step: 40, Proc: 1}}
			}
			out, err := Execute(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Divergences) > 0 {
				t.Errorf("%s diverged: %v", s, out.Divergences)
			}
			if len(out.OracleFailures) > 0 {
				t.Errorf("%s produced oracle failures on a correct implementation: %v", s, out.OracleFailures)
			}
			if !out.Label {
				t.Errorf("%s: correct implementation not labelled correct", s)
			}
		}
	}
}

func TestObjOraclesJudgeEveryPrefix(t *testing.T) {
	// The SC oracle quantifies over every response-ended prefix, like the
	// language definitions. On the correct lock stack's history a whole-word
	// check of this scenario visits about 13.6 million search nodes; the
	// per-prefix pass settles it at once and finds nothing. The LIFO queue's
	// history is sequentially consistent as a whole but not on a prefix: the
	// judge reports the SC bug, and the brute-force differential, asked the
	// same per-prefix question, agrees.
	for _, tc := range []struct {
		spec string
		bugs []string
	}{
		{"drv2:obj/stack/lock:n=4:seed=1132434385151970211:pol=biased/0.7:steps=1016:ops=8:mb=0.6:crash=1@850", nil},
		{"drv2:obj/queue/lifo:n=2:seed=6885349873091750782:pol=bursty:steps=1445:ops=3:mb=0.4:crash=1@890", []string{OracleLin, OracleSC}},
	} {
		s, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Divergences) > 0 {
			t.Errorf("%s diverged: %v", tc.spec, out.Divergences)
		}
		var bugs []string
		for _, f := range out.OracleFailures {
			bugs = append(bugs, f.Check)
		}
		if !slices.Equal(bugs, tc.bugs) {
			t.Errorf("%s: oracle failures %v, want %v", tc.spec, bugs, tc.bugs)
		}
	}
}

func TestMonitorLinRoundCutShortReplaysClean(t *testing.T) {
	// Regression: the step bound stops two processes after V_O's Line 05
	// published their triples but before their verdicts, and a third process
	// judges those triples and reports NO. The offline sketch must see every
	// published triple, or monitor-lin reports a false divergence ("history
	// and sketch are both linearizable but ... reported 1 NO").
	const spec = "drv2:obj/register/stale:n=4:seed=6980093484764410535:pol=random:steps=83:ops=4:mb=0.7"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Divergences) > 0 {
		t.Errorf("%s diverged: %v", spec, out.Divergences)
	}
	if out.NOs == 0 {
		t.Errorf("%s: no NO verdict; the scenario no longer exercises the cut round", spec)
	}
}

func TestObjSignatureSeparatesImplsAndBugs(t *testing.T) {
	// The implementation is part of the scenario: the correct queue and its
	// seeded-bug variant carry different ground truth, and the bug variant
	// has a seed that exposes its bug.
	lock := Spec{Family: FamObj, Object: "queue", Impl: "lock", N: 2, Seed: 7,
		Policy: PolRandom, Steps: 900, OpsPerProc: 4, MutBias: 0.5}
	lifo := lock
	lifo.Impl = "lifo"
	a, err := Execute(lock)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(lifo)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Label || b.Label {
		t.Errorf("ground truth: lock queue correct=%v, lifo queue correct=%v", a.Label, b.Label)
	}
	// Find a seed exposing the lifo bug: a finding about the queue, not a
	// divergence of the stack.
	for seed := int64(1); ; seed++ {
		if seed > 50 {
			t.Fatal("no seed ≤ 50 exposed the lifo bug")
		}
		s := lifo
		s.Seed = seed
		out, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.OracleFailures) == 0 {
			continue
		}
		if len(out.Divergences) > 0 {
			t.Errorf("bug-exposing %s diverged: %v", s, out.Divergences)
		}
		break
	}
}

// TestObjExplorerFindsSeededBugs is the acceptance pin: a seeded run
// over the broken queue/stack-style implementations produces failing-oracle
// outcomes, never stack divergences, and the minimizer shrinks a finding to
// a ≤20-step reproducer.
func TestObjExplorerFindsSeededBugs(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 40
	}
	rep, err := Explore(Options{
		Master: 1, Scenarios: n, Workers: 4,
		Gen: GenConfig{Families: []string{FamObj},
			Objects: []string{"queue", "stack", "register"}, MaxCrashes: 2},
		Shrink: true, ShrinkBudget: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("divergence on the shipped stack: %s %v", f.Spec, f.Divergences)
	}
	if rep.BugScenarios == 0 {
		t.Fatal("no scenario exposed a seeded bug")
	}
	found := map[string]bool{}
	for _, b := range rep.Bugs {
		found[b.Object+"/"+b.Impl] = true
		if b.Shrunk == "" {
			t.Errorf("bug %s/%s has no shrunk reproducer", b.Object, b.Impl)
			continue
		}
		// How small a reproducer can get is schedule-dependent (the seed is
		// never reshrunk); the bound pins that shrinking always makes real
		// progress from the generator's step band. The ≤20-step pin below
		// covers the minimal case.
		if b.ShrunkSteps > 500 {
			t.Errorf("bug %s/%s reproducer needs %d steps", b.Object, b.Impl, b.ShrunkSteps)
		}
		if _, err := ParseSpec(b.Shrunk); err != nil {
			t.Errorf("shrunk bug spec %q does not re-parse: %v", b.Shrunk, err)
		}
	}
	for _, want := range []string{"queue/lifo", "stack/fifo"} {
		if !found[want] {
			t.Errorf("the broken %s implementation went unfound (found %v)", want, found)
		}
	}

	// The ≤20-step pin: among the first seeds of the canonical split-register
	// shape, the minimizer reaches a reproducer of at most 20 scheduler
	// steps — two operations through the whole stack (implementation steps,
	// Aτ announce/snapshot, V_O publish/snapshot) cost ~16.
	r := Runner{}
	best := 1 << 30
	for seed := int64(1); seed <= 40 && best > 20; seed++ {
		s, err := ParseSpec(fmt.Sprintf(
			"drv2:obj/register/split:n=2:seed=%d:pol=random:steps=400:ops=2:mb=0.5", seed))
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.OracleFailures) == 0 {
			continue
		}
		shrunk, still := ShrinkBugSpec(s, r, 0)
		if len(still) == 0 {
			t.Errorf("shrinking %s lost the bug", s)
			continue
		}
		if shrunk.Steps < best {
			best = shrunk.Steps
		}
	}
	if best > 20 {
		t.Errorf("smallest shrunk reproducer needs %d steps, want ≤ 20", best)
	}
}

func TestObjBrokenMonitorCaught(t *testing.T) {
	// The monitor axis must catch a verdict-suppressing monitor on a real
	// buggy execution: the history and its sketch both violate, the yes-man
	// stays silent, and monitor-lin flags it.
	caught := false
	for seed := int64(1); seed <= 40 && !caught; seed++ {
		s := Spec{Family: FamObj, Object: "ledger", Impl: "forked", N: 2, Seed: seed,
			Policy: PolRandom, Steps: 400, OpsPerProc: 2, MutBias: 0.5}
		out, err := Runner{Wrap: wrapYes}.Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range out.Divergences {
			if d.Check == CheckMonitorLin {
				caught = true
			}
		}
	}
	if !caught {
		t.Error("yes-man monitor on the forked ledger never tripped monitor-lin")
	}

	// Crashed, lossy and step-cut runs are judged too, by the sketch of the
	// responses some verdict covered: on each of these runs of a buggy
	// implementation that sketch is not linearizable, so the yes-man's
	// silence diverges.
	for _, c := range []struct{ why, spec string }{
		{"crashed", "drv2:obj/ledger/forked:n=3:seed=9018080679818860085:pol=bursty:steps=720:ops=8:mb=0.7:crash=2@2"},
		{"lossy", "drv3:msg/counter/lost:n=4:seed=1892037277204621684:pol=random:steps=1256:ops=6:mb=0.6:net=fifo:drop=26,27"},
		{"step-cut", "drv2:obj/queue/lifo:n=4:seed=5905475931312135114:pol=bursty:steps=215:ops=5:mb=0.7"},
	} {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Runner{Wrap: wrapYes}.Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if c.why == "step-cut" && out.Steps < s.Steps {
			t.Fatalf("premise: %s ran %d of %d steps, want a cut run", c.spec, out.Steps, s.Steps)
		}
		if !slices.ContainsFunc(out.Divergences, func(d Divergence) bool { return d.Check == CheckMonitorLin }) {
			t.Errorf("yes-man monitor on the %s run %s did not trip %s: %v", c.why, c.spec, CheckMonitorLin, out.Divergences)
		}
	}
}

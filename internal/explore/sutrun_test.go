package explore

// Tests for the object-execution family: spec round trips, execution
// determinism (pooled and not), the oracle split between divergences and
// bug findings, the acceptance pin — the explorer finds the seeded-bug
// implementations and shrinks the findings to small reproducers — and the
// monitor axis catching a broken monitor on real executions.

import (
	"fmt"
	"math/rand"
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
	// digest and signature, pooled or not, run after run on one session.
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
		if a.Digest != b.Digest || a.Signature != b.Signature {
			t.Errorf("%s: unpooled %s/%s vs pooled %s/%s", s, a.Digest, a.Signature, b.Digest, b.Signature)
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
	// The family/object/impl triple anchors the class, and an exposed bug
	// folds into its own class — the axis guidance steers by.
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
	if a.Signature == b.Signature {
		t.Errorf("lock and lifo queues share signature %q", a.Signature)
	}
	if !strings.Contains(a.Signature, FamObj+"/queue/lock") {
		t.Errorf("signature %q lacks the family/object/impl anchor", a.Signature)
	}
	// Find a seed exposing the lifo bug and check the bug axis appears.
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
		if !strings.Contains(out.Signature, "|bug=") {
			t.Errorf("bug-exposing signature %q lacks a bug axis", out.Signature)
		}
		break
	}
}

// TestObjExplorerFindsSeededBugs is the acceptance pin: a seeded guided run
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

func TestObjGuidedDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// The guided object sweep inherits the language family's determinism
	// contract: byte-identical reports for every worker count, corpus growth
	// included, with every pooled outcome equal to a fresh runner's.
	n := 30
	if !testing.Short() {
		n = 80
	}
	var renders []string
	for _, workers := range []int{1, 4} {
		c, err := LoadCorpus("testdata/corpus-obj")
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() == 0 {
			t.Fatal("committed object corpus is empty; regenerate with EXPLORE_OBJ_CORPUS_OUT=testdata/corpus-obj go test -run TestRegenerateObjSeedCorpus ./internal/explore")
		}
		renders = append(renders, explorePooledMatchesFresh(t, Options{
			Master: 6, Scenarios: n, Workers: workers,
			Gen:    objGen(),
			Corpus: c, MutateFrac: 0.5, Round: 25,
			Shrink: true,
		}))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("guided object configuration %d folded a different report:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
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
}

func TestObjMutateValidAndPerturbs(t *testing.T) {
	// Mutation must stay inside the family (and the parent's object), keep
	// specs executable, and actually explore the impl-swap and workload
	// axes.
	rng := rand.New(rand.NewSource(5))
	cfg := objGen()
	implSwaps, opsChanges, mbChanges := 0, 0, 0
	for i := 0; i < 400; i++ {
		parent := NewSpec(13, i, cfg)
		child := Mutate(parent, rng, cfg)
		if err := child.validate(); err != nil {
			t.Fatalf("mutation %d of %s produced invalid %s: %v", i, parent, child, err)
		}
		if child.Fam() != FamObj || child.Object != parent.Object {
			t.Fatalf("mutation left the parent's object family: %s -> %s", parent, child)
		}
		reparsed, err := ParseSpec(child.String())
		if err != nil {
			t.Fatalf("mutated spec %q does not re-parse: %v", child, err)
		}
		if reparsed.String() != child.String() {
			t.Fatalf("mutated spec round-trip changed %q to %q", child, reparsed)
		}
		if child.Impl != parent.Impl {
			implSwaps++
		}
		if child.OpsPerProc != parent.OpsPerProc {
			opsChanges++
		}
		if child.MutBias != parent.MutBias {
			mbChanges++
		}
	}
	if implSwaps == 0 || opsChanges == 0 || mbChanges == 0 {
		t.Errorf("mutation never explored some object axis: impl=%d ops=%d mb=%d", implSwaps, opsChanges, mbChanges)
	}
}

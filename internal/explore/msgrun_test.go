package explore

// Tests for the message-passing scenario family: drv3 spec round trips,
// execution determinism (pooled and not, across worker counts), the clean
// run of every correct emulation, the oracle split, the network axes of the
// coverage signature and the mutator, and the acceptance pin — the explorer
// finds the seeded emulation bugs and shrinks a finding to a reproducer of
// at most 20 workload operations.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/monitor"
)

// msgGen is the message-family generator config used across these tests.
func msgGen() GenConfig {
	return GenConfig{Families: []string{FamMsg}, MaxCrashes: 2}
}

func TestMsgSpecStringRoundTrip(t *testing.T) {
	sawDrops, sawCrash := false, false
	for i := 0; i < 200; i++ {
		s := NewSpec(2078, i, msgGen())
		if s.Fam() != FamMsg {
			t.Fatalf("spec %d is not a message scenario: %s", i, s)
		}
		parsed, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("spec %d %q: %v", i, s.String(), err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("round trip changed %q into %q", s.String(), parsed.String())
		}
		if !strings.HasPrefix(s.String(), specVersion+":"+FamMsg+"/") {
			t.Fatalf("message spec %q does not carry the %s tag", s.String(), specVersion)
		}
		if !strings.Contains(s.String(), ":net=") {
			t.Fatalf("message spec %q lacks the network-order field", s.String())
		}
		sawDrops = sawDrops || len(s.Drops) > 0
		sawCrash = sawCrash || len(s.Crashes) > 0
	}
	if !sawDrops || !sawCrash {
		t.Errorf("generator never drew some axis: drops=%v crashes=%v", sawDrops, sawCrash)
	}
}

func TestParseSpecRejectsMalformedMsg(t *testing.T) {
	bad := []string{
		// The message family and the network fields are drv3-only grammar.
		"drv2:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv1:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=900:ops=4:mb=0.5:net=fifo",
		"drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=900:ops=4:mb=0.5:drop=3",
		// A message spec must carry a network order.
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5",
		// Unknown order, malformed or non-canonical loss schedules.
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=turtle",
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=",
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=5,3",
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=3,3",
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo:drop=-1",
		// Unknown emulated object / implementation, and family cross-overs.
		"drv3:msg/deque/abd:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv3:msg/register/split:n=3:seed=1:pol=random:steps=2000:ops=4:mb=0.5:net=fifo",
		"drv3:msg/queue/lifo:n=2:seed=1:pol=random:steps=900:ops=4:mb=0.5:net=fifo",
		// Missing workload fields on a message spec.
		"drv3:msg/register/abd:n=3:seed=1:pol=random:steps=2000:net=fifo",
		// A language spec must not carry network fields even under drv3.
		"drv3:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100:net=fifo",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", in)
		}
	}
	// The drv3 tag is a superset grammar: object and language specs parse
	// under it and re-render version-minimally.
	for in, want := range map[string]string{
		"drv3:obj/queue/lifo:n=2:seed=1:pol=random:steps=900:ops=4:mb=0.5": "drv2:obj/queue/lifo:n=2:seed=1:pol=random:steps=900:ops=4:mb=0.5",
		"drv3:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100":             "drv1:WEC_COUNT/exact:n=3:seed=1:pol=random:steps=100",
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Errorf("drv3-tagged spec %q rejected: %v", in, err)
			continue
		}
		if got := s.String(); got != want {
			t.Errorf("drv3-tagged spec %q re-rendered as %q, want %q", in, got, want)
		}
	}
}

func TestMsgExecuteDeterministicAndPooled(t *testing.T) {
	// The determinism contract extends to message scenarios: same spec, same
	// digest and signature, pooled or not, run after run on one session.
	sess := monitor.NewSession()
	defer sess.Close()
	pooled := Runner{Session: sess}
	for i := 0; i < 12; i++ {
		s := NewSpec(33, i, msgGen())
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

func TestMsgCorrectImplsClean(t *testing.T) {
	// The correct emulation of every object must run clean across seeds,
	// network orders, crash schedules and lossy networks: no divergence (the
	// emulation's guarantees hold) and no oracle failure (nothing planted).
	for _, object := range Objects(FamMsg) {
		impl := ImplsOf(FamMsg, object)[0] // correct variant first, by convention
		for seed := int64(1); seed <= 4; seed++ {
			s := Spec{Family: FamMsg, Object: object, Impl: impl, N: 3, Seed: seed,
				Policy: PolRandom, Steps: 4000, OpsPerProc: 3, MutBias: 0.5,
				NetOrder: []string{"fifo", "lifo", "random", "starve"}[seed%4]}
			switch seed % 3 {
			case 0:
				s.Crashes = []Crash{{Step: 200, Proc: 1}}
			case 1:
				s.Drops = []int{2, 3, 4}
			}
			out, err := Execute(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Divergences) > 0 {
				t.Errorf("%s diverged: %v", s, out.Divergences)
			}
			if len(out.OracleFailures) > 0 {
				t.Errorf("%s produced oracle failures on a correct emulation: %v", s, out.OracleFailures)
			}
			if !out.Label {
				t.Errorf("%s: correct emulation not labelled correct", s)
			}
		}
	}
}

func TestMsgSignatureSeparatesImplsAndNet(t *testing.T) {
	// The family/object/impl triple anchors the class, and the network
	// schedule contributes its own signature axis — the explorer must be
	// able to tell a FIFO scenario from a starved one on the same emulation.
	base := Spec{Family: FamMsg, Object: "register", Impl: "abd", N: 3, Seed: 7,
		Policy: PolRandom, Steps: 2000, OpsPerProc: 3, MutBias: 0.5, NetOrder: "fifo"}
	starved := base
	starved.NetOrder = "starve"
	a, err := Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(starved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Signature, FamMsg+"/register/abd") {
		t.Errorf("signature %q lacks the family/object/impl anchor", a.Signature)
	}
	if !strings.Contains(a.Signature, "|nt=fifo") || !strings.Contains(b.Signature, "|nt=starve") {
		t.Errorf("signatures lack the network axis: %q vs %q", a.Signature, b.Signature)
	}
	if a.Signature == b.Signature {
		t.Errorf("fifo and starved schedules share signature %q", a.Signature)
	}
}

func TestMsgReportDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// The message sweep inherits the determinism contract: byte-identical
	// reports for every worker count, with every pooled outcome equal to a
	// fresh runner's.
	n := 16
	if !testing.Short() {
		n = 40
	}
	var renders []string
	for _, workers := range []int{1, 4} {
		renders = append(renders, explorePooledMatchesFresh(t, Options{
			Master: 9, Scenarios: n, Workers: workers,
			Gen:    msgGen(),
			Shrink: true,
		}))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("message configuration %d folded a different report:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
	}
}

func TestMsgParallelExecutionsIndependent(t *testing.T) {
	// Race-tier coverage for the message stack: many goroutines executing
	// message scenarios at once — each with its own network, runtime and
	// pooled monitor session, the explorer's per-worker shape — must neither
	// race (the -race CI tier runs this test) nor bleed state across
	// executions: every goroutine sees the same digest for the same spec.
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = NewSpec(41, i, msgGen())
	}
	want := make([]string, len(specs))
	for i, s := range specs {
		out, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Digest
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := monitor.NewSession()
			defer sess.Close()
			r := Runner{Session: sess}
			for i, s := range specs {
				out, err := r.Execute(s)
				if err != nil {
					errs <- err
					return
				}
				if out.Digest != want[i] {
					errs <- fmt.Errorf("%s: digest %s under concurrency, want %s", s, out.Digest, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMsgExplorerFindsSeededBugs is the acceptance pin: a seeded run over
// the broken emulations produces failing-oracle outcomes, never divergences
// on the shipped stack, and the minimizer shrinks the canonical ABD
// write-back bug to a reproducer of at most 20 workload operations.
func TestMsgExplorerFindsSeededBugs(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 30
	}
	rep, err := Explore(Options{
		Master: 4, Scenarios: n, Workers: 4,
		Gen:    msgGen(),
		Shrink: true, ShrinkBudget: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("divergence on the shipped stack: %s %v", f.Spec, f.Divergences)
	}
	if rep.BugScenarios == 0 {
		t.Fatal("no scenario exposed a seeded emulation bug")
	}
	found := map[string]bool{}
	for _, b := range rep.Bugs {
		found[b.Object+"/"+b.Impl] = true
		if b.Shrunk == "" {
			t.Errorf("bug %s/%s has no shrunk reproducer", b.Object, b.Impl)
			continue
		}
		if _, err := ParseSpec(b.Shrunk); err != nil {
			t.Errorf("shrunk bug spec %q does not re-parse: %v", b.Shrunk, err)
		}
	}
	for _, want := range []string{"counter/lost", "consensus/echo"} {
		if !found[want] {
			t.Errorf("the broken %s emulation went unfound (found %v)", want, found)
		}
	}

	// The ≤20-operation pin on the ABD write-back bug: the no-write-back
	// read is merely regular, and among the first seeds of its canonical
	// exposing shape (read-heavy workload, LIFO delivery) the minimizer
	// reaches a reproducer of at most 20 workload operations total. The pin
	// counts operations (N·ops), not scheduler steps: one two-phase ABD
	// operation costs ~30–40 scheduler steps through the emulation, so an
	// operation bound is the meaningful notion of "small" here.
	r := Runner{}
	best := 1 << 30
	for seed := int64(1); seed <= 150 && best > 20; seed++ {
		s, err := ParseSpec(fmt.Sprintf(
			"drv3:msg/register/nowriteback:n=3:seed=%d:pol=random:steps=4000:ops=4:mb=0.3:net=lifo", seed))
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
		if ops := shrunk.N * shrunk.OpsPerProc; ops < best {
			best = ops
		}
	}
	if best > 20 {
		t.Errorf("smallest shrunk reproducer needs %d workload operations, want ≤ 20", best)
	}
}

func TestMsgGuidedDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// The guided message sweep over the committed corpus inherits the
	// determinism contract: byte-identical reports for every worker count,
	// corpus growth included, with every pooled outcome equal to a fresh
	// runner's.
	n := 30
	if !testing.Short() {
		n = 80
	}
	var renders []string
	for _, workers := range []int{1, 4} {
		c, err := LoadCorpus("testdata/corpus-msg")
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() == 0 {
			t.Fatal("committed message corpus is empty; regenerate with EXPLORE_MSG_CORPUS_OUT=testdata/corpus-msg go test -run TestRegenerateMsgSeedCorpus ./internal/explore")
		}
		renders = append(renders, explorePooledMatchesFresh(t, Options{
			Master: 8, Scenarios: n, Workers: workers,
			Gen:    msgGen(),
			Corpus: c, MutateFrac: 0.5, Round: 25,
			Shrink: true,
		}))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("guided message configuration %d folded a different report:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
	}
}

func TestCommittedMsgCorpusEntriesReplayClean(t *testing.T) {
	// Every committed message seed must execute without divergence on the
	// shipped stack — corpus entries seed mutation draws, and a diverging
	// one would be a standing false alarm.
	c, err := LoadCorpus("testdata/corpus-msg")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("committed message corpus is empty; regenerate with EXPLORE_MSG_CORPUS_OUT=testdata/corpus-msg go test -run TestRegenerateMsgSeedCorpus ./internal/explore")
	}
	n := c.Len()
	if testing.Short() {
		n = 12 // spot-check the head; the full tier replays everything
	}
	workers := 8
	pool := experiment.NewPool(experiment.WorkerCount(n, workers))
	defer pool.Close()
	runners := make([]Runner, pool.Workers())
	for w := range runners {
		runners[w].Session = monitor.NewSession()
		defer runners[w].Session.Close()
	}
	errs := make([]string, n)
	pool.Run(n, func(w, i int) {
		s := c.At(i)
		out, err := runners[w].Execute(s)
		switch {
		case err != nil:
			errs[i] = "does not execute: " + err.Error()
		case len(out.Divergences) > 0:
			errs[i] = "diverges: " + out.Divergences[0].Detail
		}
	})
	for i, msg := range errs {
		if msg != "" {
			t.Errorf("message corpus entry %s %s", c.At(i), msg)
		}
	}
}

func TestMsgMutateValidAndPerturbs(t *testing.T) {
	// Mutation must stay inside the family (and the parent's object), keep
	// specs executable, and actually explore the network axes alongside the
	// impl-swap and workload ones.
	rng := rand.New(rand.NewSource(5))
	cfg := msgGen()
	implSwaps, orderChanges, dropChanges := 0, 0, 0
	for i := 0; i < 400; i++ {
		parent := NewSpec(17, i, cfg)
		child := Mutate(parent, rng, cfg)
		if err := child.validate(); err != nil {
			t.Fatalf("mutation %d of %s produced invalid %s: %v", i, parent, child, err)
		}
		if child.Fam() != FamMsg || child.Object != parent.Object {
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
		if child.NetOrder != parent.NetOrder {
			orderChanges++
		}
		if fmt.Sprint(child.Drops) != fmt.Sprint(parent.Drops) {
			dropChanges++
		}
	}
	if implSwaps == 0 || orderChanges == 0 || dropChanges == 0 {
		t.Errorf("mutation never explored some message axis: impl=%d net=%d drops=%d", implSwaps, orderChanges, dropChanges)
	}
}

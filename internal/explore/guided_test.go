package explore

// Acceptance tests for coverage-guided exploration: at equal scenario
// budget and fixed master seed, guidance from the committed corpus must
// discover strictly more distinct coverage signatures than the blind sweep,
// and a guided report must stay byte-identical across worker counts and
// pooling modes — guidance is a sampling strategy, never a determinism
// leak.

import (
	"testing"

	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/monitor"
)

// committedCorpus is the seed corpus shipped with the repository.
const committedCorpus = "testdata/corpus"

func loadCommitted(t *testing.T) *Corpus {
	t.Helper()
	c, err := LoadCorpus(committedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("committed corpus is empty; regenerate with EXPLORE_CORPUS_OUT=testdata/corpus go test -run TestRegenerateSeedCorpus ./internal/explore")
	}
	return c
}

func TestGuidedBeatsBlindCoverage(t *testing.T) {
	// The tentpole claim: guidance concentrates the budget on the boundary
	// of the seen signature space, so it must strictly out-discover the
	// blind sweep at the same budget and master seed. Everything here is
	// deterministic — the committed corpus, the master seed and the round
	// size pin both runs bit for bit.
	if testing.Short() {
		t.Skip("guided-vs-blind comparison runs at full depth")
	}
	const budget, master = 250, 2
	blind, err := Explore(Options{
		Master: master, Scenarios: budget, Workers: 4,
		Gen: GenConfig{MaxCrashes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := Explore(Options{
		Master: master, Scenarios: budget, Workers: 4,
		Gen:    GenConfig{MaxCrashes: 2},
		Corpus: loadCommitted(t), MutateFrac: 0.5, Round: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if guided.Coverage <= blind.Coverage {
		t.Errorf("guided run found %d signatures, blind found %d — guidance must strictly win at equal budget",
			guided.Coverage, blind.Coverage)
	}
	if guided.Mutated == 0 {
		t.Error("guided run never mutated a corpus entry")
	}
	if guided.CorpusNew == 0 {
		t.Error("guided run added nothing to the corpus")
	}
	for _, f := range append(blind.Failures, guided.Failures...) {
		t.Errorf("divergence on shipped monitors: %s %v", f.Spec, f.Divergences)
	}
}

func TestGuidedReportDeterministicAcrossWorkersAndPooling(t *testing.T) {
	// Corpus growth feeds back into later rounds' mutation draws, so it is
	// the one place worker count could sneak into a guided report; folding
	// signatures in scenario-index order keeps it out. Each run loads its
	// own corpus copy — Explore grows the corpus it is given — and every
	// pooled outcome must equal a fresh runner's.
	n := 40
	if !testing.Short() {
		n = 150
	}
	var renders []string
	var grown []int
	for _, workers := range []int{1, 4} {
		c := loadCommitted(t)
		renders = append(renders, explorePooledMatchesFresh(t, Options{
			Master: 11, Scenarios: n, Workers: workers,
			Gen:    GenConfig{MaxCrashes: 2},
			Corpus: c, MutateFrac: 0.5, Round: 25,
		}))
		grown = append(grown, c.New())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("guided configuration %d folded a different report:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
		if grown[i] != grown[0] {
			t.Fatalf("guided configuration %d grew the corpus by %d entries, configuration 0 by %d", i, grown[i], grown[0])
		}
	}
	if grown[0] == 0 {
		t.Error("no configuration grew the corpus — the feedback loop never fired")
	}
}

func TestGuidedZeroMutateFracMatchesBlind(t *testing.T) {
	// MutateFrac 0 must reproduce the blind sweep scenario for scenario even
	// with a corpus loaded: the guidance stream is independent of the
	// generation stream. (Coverage bookkeeping still runs on both sides.)
	n := 40
	blind, err := Explore(Options{Master: 13, Scenarios: n, Workers: 2, Gen: GenConfig{MaxCrashes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := Explore(Options{
		Master: 13, Scenarios: n, Workers: 2, Gen: GenConfig{MaxCrashes: 2},
		Corpus: loadCommitted(t), MutateFrac: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if blind.Coverage != guided.Coverage || blind.TotalSteps != guided.TotalSteps || blind.TotalVerdicts != guided.TotalVerdicts {
		t.Errorf("MutateFrac 0 changed the sweep: blind %d/%d/%d vs corpus-loaded %d/%d/%d",
			blind.Coverage, blind.TotalSteps, blind.TotalVerdicts,
			guided.Coverage, guided.TotalSteps, guided.TotalVerdicts)
	}
	if guided.Mutated != 0 {
		t.Errorf("MutateFrac 0 still mutated %d scenarios", guided.Mutated)
	}
}

func TestCommittedCorpusEntriesReplayClean(t *testing.T) {
	// Every committed seed must execute without divergence on the shipped
	// monitors — a corpus entry that diverges belongs in corpus_test.go with
	// a lesson attached, not in the mutation pool.
	c := loadCommitted(t)
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
			t.Errorf("corpus entry %s %s", c.At(i), msg)
		}
	}
}

package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// Lemma65 is the alternation attack showing EC_LED ∉ PWD: a behaviour that
// alternates divergence phases (an append whose record stays invisible to
// gets) with convergence phases (gets catch up), staying inside EC_LED in
// the limit — every record eventually appears, and gets always form a chain
// — while forcing every process to report NO during every divergence phase.
// NO counts therefore grow without bound along an in-language word. The
// executions are tight (canonical schedule against Aτ), so x(E) = x~(E) and
// the predictive escape clause cannot justify the NOs: predictive weak
// decidability fails.
//
// The paper's proof is adaptive — it extends the word at whichever point the
// monitor under attack reports NO, defeating every monitor. The executable
// experiment fixes phase lengths and verifies, per phase, that the concrete
// monitor did report NO; a monitor that stays silent through a divergence
// phase fails differently (it misses the divergence on the pure-bad word,
// which the harness reports as the soundness counter-example instead).
type Lemma65 struct {
	// N is the number of processes (the paper uses 2).
	N int
	// Stages is the number of divergence/convergence alternations.
	Stages int
	// BadRounds and GoodRounds are the gets per process in each phase.
	BadRounds, GoodRounds int
}

// Lemma65Phase records one phase's verification.
type Lemma65Phase struct {
	// Stage index and whether this is the divergence (bad) half.
	Stage int
	Bad   bool
	// Lo and Hi delimit the phase's symbol range in the word.
	Lo, Hi int
	// NOs[p] is how many NOs process p reported with source position in
	// (Lo, Hi].
	NOs []int
}

// Lemma65Result is the attack outcome.
type Lemma65Result struct {
	// Word is the full exhibited behaviour.
	Word trace.Word
	// SafetyOK reports the EC ordering clause held on every prefix, and
	// Converges the convergence diagnostic on its quiescent tail — together
	// the finite-run evidence that the ω-extension is in EC_LED.
	SafetyOK, Converges bool
	// TightSketch reports x(E) = x~(E): the escape clause is closed.
	TightSketch bool
	// Phases carry per-phase NO counts.
	Phases []Lemma65Phase
	// MinStageNOs is the minimum over processes and divergence stages of
	// the per-stage NO count; ≥ 1 demonstrates unbounded growth.
	MinStageNOs int
	// Run is the full execution.
	Run *monitor.Result
}

// Build constructs the staged word and the phase ranges.
func (l Lemma65) Build() (trace.Word, []Lemma65Phase) {
	n, stages := l.N, l.Stages
	if n < 2 {
		n = 2
	}
	if stages < 1 {
		stages = 3
	}
	bad, good := l.BadRounds, l.GoodRounds
	if bad < 1 {
		bad = 3
	}
	if good < 1 {
		good = 3
	}
	b := trace.NewB()
	var phases []Lemma65Phase
	var recs trace.Seq
	pos := 0
	sym := func(k int) int { return 2 * k } // operations → symbol count
	for s := 0; s < stages; s++ {
		// Divergence phase: p0 appends a fresh record; gets keep returning
		// the old ledger.
		rec := trace.Rec(fmt.Sprintf("r%d", s))
		stale := recs.Clone()
		recs = append(recs, rec)
		lo := sym(pos)
		b.Op(0, trace.OpAppend, rec, trace.Unit{})
		pos++
		for r := 0; r < bad; r++ {
			for p := n - 1; p >= 0; p-- { // paper order: p2 first, then p1
				b.Op(p, trace.OpGet, nil, stale)
				pos++
			}
		}
		phases = append(phases, Lemma65Phase{Stage: s, Bad: true, Lo: lo, Hi: sym(pos)})
		// Convergence phase: gets catch up with the full ledger.
		lo = sym(pos)
		for r := 0; r < good; r++ {
			for p := 0; p < n; p++ {
				b.Op(p, trace.OpGet, nil, recs.Clone())
				pos++
			}
		}
		phases = append(phases, Lemma65Phase{Stage: s, Bad: false, Lo: lo, Hi: sym(pos)})
	}
	return b.Word(), phases
}

// Run mounts the attack on the monitor factory (which receives the timed
// adversary, like Figure 9's monitor).
func (l Lemma65) Run(mk func(tau *adversary.Timed) monitor.Monitor, kind adversary.ArrayKind) (*Lemma65Result, error) {
	n := l.N
	if n < 2 {
		n = 2
	}
	w, phases := l.Build()
	res, tau, err := ScheduledTimedRun(mk, n, w, kind, Canonical(w, n))
	if err != nil {
		return nil, fmt.Errorf("lemma 6.5 run: %w", err)
	}
	judge := lang.ECLed().Judge
	converges, _ := judge.Converges(res.History)
	out := &Lemma65Result{
		Word:        res.History,
		SafetyOK:    judge.Violation(res.History, nil) == nil,
		Converges:   converges,
		TightSketch: tight(res, n, tau),
		Run:         res,
	}
	// Attribute NOs to phases by the source position consumed when each
	// verdict was reported. A verdict for the operation whose response sits
	// at word index r is recorded with r+2 symbols consumed (the adversary
	// keeps one symbol queued), so the windows shift by one symbol.
	for _, ph := range phases {
		ph.NOs = make([]int, n)
		for p := 0; p < n; p++ {
			for k, v := range res.Verdicts[p] {
				if v != monitor.No {
					continue
				}
				at := res.PulledAt[p][k]
				if at > ph.Lo+1 && at <= ph.Hi+1 {
					ph.NOs[p]++
				}
			}
		}
		out.Phases = append(out.Phases, ph)
	}
	out.MinStageNOs = -1
	for _, ph := range out.Phases {
		if !ph.Bad {
			continue
		}
		for _, c := range ph.NOs {
			if out.MinStageNOs < 0 || c < out.MinStageNOs {
				out.MinStageNOs = c
			}
		}
	}
	return out, nil
}

// Verify converts the attack into a pass/fail judgement: nil means the
// impossibility was demonstrated — an in-language tight behaviour on which
// every process reports NO in every divergence stage.
func (l Lemma65) Verify(mk func(tau *adversary.Timed) monitor.Monitor, kind adversary.ArrayKind) error {
	r, err := l.Run(mk, kind)
	if err != nil {
		return err
	}
	if !r.SafetyOK {
		return fmt.Errorf("lemma 6.5: staged word violates the EC ordering clause — construction bug")
	}
	if !r.Converges {
		return fmt.Errorf("lemma 6.5: staged word does not converge in its tail — construction bug")
	}
	if !r.TightSketch {
		return fmt.Errorf("lemma 6.5: execution not tight, the sketch escape clause remains open")
	}
	if r.MinStageNOs < 1 {
		return fmt.Errorf("lemma 6.5: some process reported no NO in a divergence stage (min %d) — the candidate monitor misses divergence, which is its own failure on the pure divergent word", r.MinStageNOs)
	}
	return nil
}

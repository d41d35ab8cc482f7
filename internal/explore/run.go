package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// family groups the languages by the monitor construction the explorer runs
// against them, which in turn fixes the decidability predicate used as the
// verdict oracle.
type family uint8

const (
	// famWEC runs the amplified Figure 5 weak decider (untimed, WD oracle).
	famWEC family = iota + 1
	// famSEC runs the amplified Figure 9 decider (timed, PWD oracle).
	famSEC
	// famPred runs the Figure 8 predictive monitor with the LIN or SC
	// acceptance check (timed, PSD oracle).
	famPred
	// famECLed runs the best-effort EC-ledger monitor; EC_LED is
	// undecidable in every class, so only the structural and label-safety
	// oracles apply.
	famECLed
)

// famOf maps a Table 1 language name to its monitor family.
func famOf(langName string) family {
	switch langName {
	case "WEC_COUNT":
		return famWEC
	case "SEC_COUNT":
		return famSEC
	case "EC_LED":
		return famECLed
	default:
		return famPred
	}
}

// timed reports whether the family monitors against the timed adversary Aτ.
func (f family) timed() bool { return f == famSEC || f == famPred }

// Outcome is the result of executing one scenario.
type Outcome struct {
	// Spec is the executed scenario.
	Spec Spec `json:"spec"`
	// Monitor names the monitor that ran.
	Monitor string `json:"monitor"`
	// Label is the source's ω-membership ground truth.
	Label bool `json:"label"`
	// Steps is the number of scheduler steps actually taken.
	Steps int `json:"steps"`
	// Verdicts is the total verdict count across processes.
	Verdicts int `json:"verdicts"`
	// NOs is the total NO count across processes.
	NOs int `json:"nos"`
	// Digest fingerprints the full execution (history, verdict streams,
	// step and history indices); equal specs must produce equal digests.
	Digest string `json:"digest"`
	// Cursor snapshots the adversary cursor's drive state at the end of the
	// run (source depth, gate backlog, exhaustion) — one of the signature's
	// coverage axes.
	Cursor adversary.CursorStats `json:"cursor"`
	// Signature is the outcome's coverage class (see coverage.go): the
	// guided explorer corpus-keeps one spec per distinct signature.
	Signature string `json:"signature"`
	// Divergences are the failed differential checks, empty when the
	// scenario is clean.
	Divergences []Divergence `json:"divergences,omitempty"`
	// OracleFailures (object family only) are oracle violations on
	// properties the implementation does not guarantee: the seeded bug was
	// exposed. They are findings about the system under test, not about the
	// monitoring stack, so they are reported separately from Divergences.
	OracleFailures []Divergence `json:"oracle_failures,omitempty"`
	// Ran and Skipped name the checks that ran and those that did not
	// apply (label checks on crashed runs, tail proxies on short runs).
	Ran     []string `json:"ran"`
	Skipped []string `json:"skipped,omitempty"`
}

// Runner executes scenarios. The zero value runs the shipped monitors on a
// fresh runtime per scenario; Wrap lets tests swap in broken ones, Session
// lets a worker reuse one pooled runtime for its whole batch.
type Runner struct {
	// Wrap, when non-nil, wraps the scenario's monitor before the run.
	Wrap func(monitor.Monitor) monitor.Monitor
	// Session, when non-nil, executes every scenario on this pooled
	// runtime+session pair. Outcomes are byte-identical to unpooled runs,
	// but the runner must not be used concurrently (explore gives each
	// worker its own).
	Session *monitor.Session
	// scratch, when non-nil (see Pooled), reuses one execution substrate —
	// SUT instances, workload, service, timed adversary, crash map, network —
	// across the runner's scenarios instead of allocating it per run.
	scratch *runScratch
	// stages, when non-nil, accumulates per-stage wall time and allocations
	// (see StageStats); nil costs nothing on the hot path.
	stages *stageRecorder
}

// checker returns a reset incremental checker for (obj, realTime) over n
// processes: borrowed from the session's checker pool when the runner has a
// session, so the memo table and key buffers grown by earlier scenarios are
// reused, else fresh. The verdicts are the same either way.
func (r Runner) checker(obj trace.Object, realTime bool, n int) *check.Incremental {
	if r.Session != nil {
		return r.Session.CheckPool().Get(obj, realTime, n)
	}
	return check.NewIncremental(obj, realTime, n)
}

// safetyViolated evaluates the language's safety test on w. Languages whose
// test is a witness-search condition (Lang.Checker) run through an
// incremental checker — one pass over w even for the per-prefix-quantified
// conditions, where the closed-over checker re-searches every response-ended
// prefix. The boolean is the closure's.
func (r Runner) safetyViolated(l lang.Lang, w trace.Word) bool {
	c := l.Checker
	if c == nil {
		return l.SafetyViolated(w)
	}
	chk := r.checker(l.Object, c.RealTime, w.Procs())
	if c.PerPrefix {
		return chk.AnyPrefixViolated(w)
	}
	return !chk.CheckWord(w)
}

// Execute runs the scenario and differentially checks its verdicts. The
// returned error reports unexecutable specs (unknown language or source);
// oracle mismatches are reported as Divergences in the outcome.
func Execute(s Spec) (*Outcome, error) { return Runner{}.Execute(s) }

// Execute runs the scenario under the runner's monitor wrapping.
func (r Runner) Execute(s Spec) (*Outcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Fam() == FamObj {
		return r.executeObj(s)
	}
	if s.Fam() == FamMsg {
		return r.executeMsg(s)
	}
	l, err := langByName(s.Lang)
	if err != nil {
		return nil, err
	}
	var lb adversary.Labeled
	found := false
	for _, cand := range l.Sources(s.N, s.Seed) {
		if cand.Name == s.Source {
			lb, found = cand, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("explore: language %s has no source %q", s.Lang, s.Source)
	}

	fam := famOf(s.Lang)
	crash := r.crashMap(s)

	adv := adversary.NewA(s.N, lb.New())
	var tau *adversary.Timed
	var svc adversary.Service = adv
	if fam.timed() {
		tau = adversary.NewTimed(s.N, adv, adversary.ArrayAtomic)
		svc = tau
	}
	m := r.buildMonitor(fam, l, tau)
	cfg := monitor.Config{
		N:       s.N,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return svc, []int{adv.Register(rt)}
		},
		Policy:   func(aux []int) sched.Policy { return s.policy(aux) },
		MaxSteps: s.Steps,
		Crash:    crash,
	}
	mark := r.stages.start()
	var res *monitor.Result
	if r.Session != nil {
		res = r.Session.Run(cfg)
	} else {
		res = monitor.Run(cfg)
	}
	r.stages.stop(FamLang, stageExecute, mark)

	out := &Outcome{
		Spec:    s,
		Monitor: m.Name(),
		Label:   lb.In,
		Steps:   res.Steps,
		NOs:     res.TotalNO(),
		Digest:  digest(res),
		Cursor:  adv.CursorStats(),
	}
	for p := range res.Verdicts {
		out.Verdicts += len(res.Verdicts[p])
	}
	mark = r.stages.start()
	r.runChecks(out, l, lb, fam, res, tau)
	r.stages.stop(FamLang, stageCheck, mark)
	out.Signature = signatureOf(out, res)
	return out, nil
}

// buildMonitor constructs the family's monitor for the language, applying
// the runner's wrapping.
func (r Runner) buildMonitor(fam family, l lang.Lang, tau *adversary.Timed) monitor.Monitor {
	var m monitor.Monitor
	switch fam {
	case famWEC:
		m = monitor.AmplifyWAD(monitor.NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic)
	case famSEC:
		m = monitor.AmplifyWAD(monitor.NewSEC(tau, adversary.ArrayAtomic), adversary.ArrayAtomic)
	case famECLed:
		m = monitor.NewECLed(adversary.ArrayAtomic)
	default:
		if l.Name == "LIN_REG" || l.Name == "LIN_LED" {
			m = monitor.NewLin(l.Object, tau, adversary.ArrayAtomic)
		} else {
			m = monitor.NewSC(l.Object, tau, adversary.ArrayAtomic)
		}
	}
	if r.Wrap != nil {
		m = r.Wrap(m)
	}
	return m
}

// policy builds the scenario's scheduling policy. The policy seed is an
// independent stream derived from the spec seed, so schedule randomness and
// source randomness never correlate.
func (s Spec) policy(aux []int) sched.Policy {
	pseed := mix(s.Seed, 0x5eed)
	cursor := -1
	if len(aux) > 0 {
		cursor = aux[0]
	}
	switch s.Policy {
	case PolRandom:
		return sched.Random(pseed)
	case PolBursty:
		return sched.Bursty(pseed, 4)
	case PolCursor:
		return sched.Prioritize(cursor, sched.Random(pseed))
	default:
		return sched.Biased(pseed, cursor, s.Bias)
	}
}

// digest fingerprints everything the differential checks see: the exhibited
// history and the per-process verdict streams with their step and history
// indices. Replaying a spec must reproduce the digest bit for bit.
func digest(res *monitor.Result) string {
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

package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// classOf is the notion the explorer judges l's Decider under, the first ✓
// of l's Table 1 row: WD runs untimed, PSD and PWD against Aτ. EC_LED has
// none (0), so only the structural and label-safety oracles apply.
func classOf(l lang.Lang) core.Class {
	switch l.Judge.Cond {
	case lang.WEC:
		return core.WD
	case lang.SEC:
		return core.PWD
	case lang.LIN, lang.SC:
		return core.PSD
	}
	return 0
}

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
	// Divergences are the failed differential checks, empty when the
	// scenario is clean.
	Divergences []Divergence `json:"divergences,omitempty"`
	// OracleFailures (object and message-passing scenarios) are oracle
	// violations on properties the implementation does not guarantee: the
	// seeded bug was exposed. They are findings about the system under test, not about the
	// monitoring stack, so they are reported separately from Divergences.
	OracleFailures []Divergence `json:"oracle_failures,omitempty"`
	// Ran and Skipped name the checks that ran and those that did not
	// apply (label checks on crashed runs, tail proxies on short runs).
	Ran     []string `json:"ran"`
	Skipped []string `json:"skipped,omitempty"`
}

// Runner executes scenarios. The zero value runs the shipped monitors,
// setting up a runtime+session pair and an execution substrate for each
// Execute call; Wrap lets tests swap in broken monitors, and Session plus
// Pooled let a worker keep both for its whole batch.
type Runner struct {
	// Wrap, when non-nil, wraps the scenario's monitor before the run.
	Wrap func(monitor.Monitor) monitor.Monitor
	// Session, when non-nil, executes every scenario on this pooled
	// runtime+session pair; when nil, each Execute call opens and closes its
	// own. A runner with a session must not be used concurrently (explore
	// gives each worker its own).
	Session *monitor.Session
	// scratch, when non-nil (see Pooled), keeps one execution substrate —
	// SUT instances, workload, service, policy source, crash map, network —
	// across the runner's scenarios; when nil, each Execute call starts a
	// new one. The adversary cursor and the timed adversary are the
	// session's.
	scratch *runScratch
	// stages, when non-nil, accumulates per-stage wall time and allocations
	// (see StageStats); nil costs nothing on the hot path.
	stages *stageRecorder
	// classOnly stops an object scenario's checks after the class oracles,
	// skipping the brute-force differential and the monitor check. A bug
	// shrink sets it: it reads only a candidate's OracleFailures, which
	// those checks never write.
	classOnly bool
}

// Execute runs the scenario and differentially checks its verdicts. The
// returned error reports unexecutable specs (unknown language or source);
// oracle mismatches are reported as Divergences in the outcome.
func Execute(s Spec) (*Outcome, error) { return Runner{}.Execute(s) }

// Execute runs the scenario under the runner's monitor wrapping. A runner
// without a session or scratch gets both for this call alone, so every
// scenario runs down the same path.
func (r Runner) Execute(s Spec) (*Outcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if r.Session == nil {
		r.Session = monitor.NewSession()
		defer r.Session.Close()
	}
	if r.scratch == nil {
		r.scratch = newRunScratch()
	}
	if s.Fam() != FamLang {
		return r.executeObj(s)
	}
	l, err := lang.ByName(s.Lang)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	sources := l.Sources(s.N, s.Seed)
	i := slices.IndexFunc(sources, func(lb adversary.Labeled) bool { return lb.Name == s.Source })
	if i < 0 {
		return nil, fmt.Errorf("explore: language %s has no source %q", s.Lang, s.Source)
	}
	lb := sources[i]

	adv := r.Session.Cursor(s.N, lb.New())
	var tau *adversary.Timed
	var svc adversary.Service = adv
	if classOf(l).Predictive() {
		tau = r.Session.Timed(s.N, adv, adversary.ArrayAtomic)
		svc = tau
	}
	out, res := r.run(s, experiment.Decider(l, tau), func(rt *sched.Runtime) (adversary.Service, []int) {
		return svc, []int{adv.Register(rt)}
	})
	out.Label = lb.In
	mark := r.stages.start()
	r.runChecks(out, l, lb, res, tau)
	r.stages.stop(FamLang, stageCheck, mark)
	return out, nil
}

// run executes the scenario's Figure 1 loop once on the runner's session:
// monitor m, after the runner's wrapping, against the service newService
// installs, under the spec's policy, step bound and crash schedule. It
// returns the outcome with the run-level fields every family shares filled
// in, and the session-owned result, valid until the runner's next run.
func (r Runner) run(s Spec, m monitor.Monitor, newService func(*sched.Runtime) (adversary.Service, []int)) (*Outcome, *monitor.Result) {
	if r.Wrap != nil {
		m = r.Wrap(m)
	}
	cfg := monitor.Config{
		N:          s.N,
		Monitor:    m,
		NewService: newService,
		Policy:     func(aux []int) sched.Policy { return s.policy(r.scratch.rng, aux) },
		MaxSteps:   s.Steps,
		Crash:      r.crashMap(s),
	}
	mark := r.stages.start()
	res := r.Session.Run(cfg)
	r.stages.stop(s.Fam(), stageExecute, mark)

	out := &Outcome{
		Spec:    s,
		Monitor: m.Name(),
		Steps:   res.Steps,
		NOs:     res.TotalNO(),
		Digest:  r.scratch.digest(res),
	}
	for p := range res.Verdicts {
		out.Verdicts += len(res.Verdicts[p])
	}
	return out, res
}

// policy builds the scenario's scheduling policy, drawing from rng reseeded
// with the policy seed: an independent stream derived from the spec seed, so
// schedule randomness and source randomness never correlate. A reseeded
// lazyrand source draws exactly a fresh one's stream, so the schedule is the
// one sched.Random(seed) and its siblings would draw.
func (s Spec) policy(rng *rand.Rand, aux []int) sched.Policy {
	rng.Seed(mix(s.Seed, 0x5eed))
	cursor := -1
	if len(aux) > 0 {
		cursor = aux[0]
	}
	switch s.Policy {
	case PolRandom:
		return sched.RandomFrom(rng)
	case PolBursty:
		return sched.BurstyFrom(rng, 4)
	case PolCursor:
		return sched.Prioritize(cursor, sched.RandomFrom(rng))
	default:
		return sched.BiasedFrom(rng, cursor, s.Bias)
	}
}

// digest fingerprints everything the differential checks see: the exhibited
// history and the per-process verdict streams with their step and history
// indices. Replaying a spec must reproduce the digest bit for bit. The hashed
// text is
//
//	steps=<steps>\nhist=<History.String()>\n
//	p<p>: <verdict>@<step>/<hist> …\n   (one line per process)
//
// written into the scratch's reusable buffer without fmt.
func (sc *runScratch) digest(res *monitor.Result) string {
	b := append(sc.digestBuf[:0], "steps="...)
	b = strconv.AppendInt(b, int64(res.Steps), 10)
	b = append(b, "\nhist="...)
	for i, sym := range res.History {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendSymbol(b, sym)
	}
	b = append(b, '\n')
	for p := range res.Verdicts {
		b = append(b, 'p')
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ':')
		for k, v := range res.Verdicts[p] {
			b = append(b, ' ')
			b = append(b, v.String()...)
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(res.StepAt[p][k]), 10)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(res.HistAt[p][k]), 10)
		}
		b = append(b, '\n')
	}
	sc.digestBuf = b
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// appendSymbol appends exactly s.String() to b.
func appendSymbol(b []byte, s trace.Symbol) []byte {
	if s.Kind == trace.Res {
		b = append(b, '>')
	} else {
		b = append(b, '<')
	}
	b = strconv.AppendInt(b, int64(s.Proc), 10)
	b = append(b, ':')
	b = append(b, s.Op...)
	if s.Kind != trace.Inv {
		return appendValue(append(b, '='), s.Val)
	}
	return append(appendValue(append(b, '('), s.Val), ')')
}

// appendValue appends the value's String() to b ("" for nil), encoding the
// built-in value types directly and falling back to String for others.
func appendValue(b []byte, v trace.Value) []byte {
	switch v := v.(type) {
	case nil:
		return b
	case trace.Int:
		return strconv.AppendInt(b, int64(v), 10)
	case trace.Rec:
		return append(b, v...)
	case trace.Seq:
		b = append(b, '[')
		for i, r := range v {
			if i > 0 {
				b = append(b, "·"...)
			}
			b = append(b, r...)
		}
		return append(b, ']')
	case trace.Unit:
		return append(b, "()"...)
	default:
		return append(b, v.String()...)
	}
}

package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// Params sizes the Table 1 harness. The defaults run the whole table in
// well under a second; larger values sharpen the finite-run proxies for the
// ω-word quantifiers.
type Params struct {
	// Procs is the monitor process count for possibility cells.
	Procs int
	// Seeds are the scheduling seeds each possibility cell sweeps.
	Seeds []int64
	// Steps bounds untimed possibility runs; TimedSteps the predictive
	// monitors (whose per-round check grows with history); SCSteps the
	// sequential-consistency monitors (exponential search, shortest runs).
	Steps, TimedSteps, SCSteps int
	// Window is the verdict-tail length interpreting "finitely many NOs".
	Window int
	// Rounds sizes the Lemma 5.1 construction and the bad prefix of the
	// prefix-extension attacks; Stages is the Lemma 6.5 alternation count.
	Rounds, Stages int
}

// DefaultParams returns the harness defaults.
func DefaultParams() Params {
	return Params{
		Procs:      3,
		Seeds:      []int64{1, 2},
		Steps:      30_000,
		TimedSteps: 4_000,
		SCSteps:    1_500,
		Window:     4,
		Rounds:     8,
		Stages:     3,
	}
}

// ShortParams returns a shrunk parameter set for quick runs (go test -short
// and smoke tests): one seed, shorter step bounds, smaller constructions.
// Every cell still reproduces — the whole table runs in well under a second
// — but the finite-run proxies for the ω-word quantifiers are coarser, and
// only seed 1 is swept (seed 2 needs longer runs for the PWD proxies).
func ShortParams() Params {
	return Params{
		Procs:      3,
		Seeds:      []int64{1},
		Steps:      3_000,
		TimedSteps: 600,
		SCSteps:    300,
		Window:     4,
		Rounds:     3,
		Stages:     2,
	}
}

// ParamError reports a Params field below its minimum.
type ParamError struct {
	Field      string // the Params field, e.g. "Procs"; "Seeds" counts the seeds
	Value, Min int
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("experiment: %s is %d, want at least %d", e.Field, e.Value, e.Min)
}

// Validate returns a *ParamError for the first field below its minimum: two
// processes (the generators and the impossibility constructions schedule
// against a second process), and one seed, step, window slot, round and
// stage. Below them a run either panics or reproduces every cell from empty
// evidence.
func (p Params) Validate() error {
	for _, f := range []ParamError{
		{"Procs", p.Procs, 2},
		{"Seeds", len(p.Seeds), 1},
		{"Steps", p.Steps, 1},
		{"TimedSteps", p.TimedSteps, 1},
		{"SCSteps", p.SCSteps, 1},
		{"Window", p.Window, 1},
		{"Rounds", p.Rounds, 1},
		{"Stages", p.Stages, 1},
	} {
		if f.Value < f.Min {
			return &f
		}
	}
	return nil
}

// Cell is one entry of Table 1.
type Cell struct {
	// Lang and Class locate the cell.
	Lang  string
	Class core.Class
	// Expected is the paper's claim: true = decidable (✓).
	Expected bool
	// Method names the construction that reproduces the cell.
	Method string
	// Evidence is a one-line summary of what was checked.
	Evidence string
	// Err is non-nil when the reproduction failed.
	Err error
}

// OK reports whether the cell was reproduced.
func (c Cell) OK() bool { return c.Err == nil }

// Mark renders ✓/✗ as in Table 1.
func (c Cell) Mark() string {
	if c.Expected {
		return "✓"
	}
	return "✗"
}

// Row is one language row of Table 1.
type Row struct {
	Lang  string
	Cells [4]Cell // SD, WD, PSD, PWD
}

// Table1 reproduces every cell of Table 1 sequentially and returns the rows
// in paper order. It is Run with a single worker and no cancellation; use
// Run directly for the parallel engine, progress streaming and fail-fast.
// Params that fail Validate yield no rows.
func Table1(p Params) []Row {
	rows, _ := Run(context.Background(), p, Options{})
	return rows
}

// plan is the fully laid-out Table 1: static cell metadata in rows, and the
// executable units that reproduce the cells. Building the plan performs no
// monitored executions; the engine (engine.go) runs the units.
type plan struct {
	p     Params
	rows  []Row
	units []unit
	// wrap, when non-nil, wraps every possibility sweep's monitor; tests use
	// it to break the monitors.
	wrap func(monitor.Monitor) monitor.Monitor
}

// buildPlan lays out every cell of Table 1, with wrap as the plan's wrap.
func buildPlan(p Params, wrap func(monitor.Monitor) monitor.Monitor) *plan {
	t := &plan{p: p, wrap: wrap}
	t.registerRow(lang.LinReg())
	t.registerRow(lang.SCReg())
	t.ledgerRow(lang.LinLed())
	t.ledgerRow(lang.SCLed())
	t.ecLedRow()
	t.wecRow()
	t.secRow()
	return t
}

// newRow appends an empty row and returns its index.
func (t *plan) newRow(name string) int {
	t.rows = append(t.rows, Row{Lang: name})
	return len(t.rows) - 1
}

// setCell fills one cell's static metadata and returns its key.
func (t *plan) setCell(row, col int, lang string, class core.Class, expected bool, method, evidence string) cellKey {
	t.rows[row].Cells[col] = Cell{Lang: lang, Class: class, Expected: expected, Method: method, Evidence: evidence}
	return cellKey{row, col}
}

// add appends a unit in plan order.
func (t *plan) add(name string, targets []cellKey, run func(sess *monitor.Session) []error) {
	t.units = append(t.units, unit{ord: len(t.units), name: name, targets: targets, run: run})
}

// ---------------------------------------------------------------- running

// Decider builds the monitor that proves l's ✓ cells: Figure 8's V_O over
// l's object with l's LIN or SC check, or the amplified Figure 5 (WEC_COUNT)
// or Figure 9 (SEC_COUNT) decider. EC_LED, with no ✓ cell, gets the
// best-effort EC-ledger monitor. tau is Aτ, nil for an untimed run.
func Decider(l lang.Lang, tau *adversary.Timed) monitor.Monitor {
	switch l.Judge.Cond {
	case lang.LIN:
		return monitor.NewLin(l.Object, tau, adversary.ArrayAtomic)
	case lang.SC:
		return monitor.NewSC(l.Object, tau, adversary.ArrayAtomic)
	case lang.WEC:
		return monitor.AmplifyWAD(monitor.NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic)
	case lang.SEC:
		return monitor.AmplifyWAD(monitor.NewSEC(tau, adversary.ArrayAtomic), adversary.ArrayAtomic)
	}
	return monitor.NewECLed(adversary.ArrayAtomic)
}

// run executes l's Decider, after the plan's wrap, against A exhibiting the
// source's word, on the worker's pooled session and its pooled adversaries.
// A predictive class runs against Aτ, which wraps A and is returned; an
// untimed run returns nil. The result and Aτ are the session's, valid until
// its next run.
func (t *plan) run(sess *monitor.Session, l lang.Lang, class core.Class, src adversary.Source, seed int64, steps int) (*monitor.Result, *adversary.Timed) {
	adv := sess.Cursor(t.p.Procs, src)
	var svc adversary.Service = adv
	var tau *adversary.Timed
	if class.Predictive() {
		tau = sess.Timed(t.p.Procs, adv, adversary.ArrayAtomic)
		svc = tau
	}
	m := Decider(l, tau)
	if t.wrap != nil {
		m = t.wrap(m)
	}
	res := sess.Run(monitor.Config{
		N:       t.p.Procs,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return svc, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
	})
	return res, tau
}

// sweep emits one unit per (seed, labelled source): each unit runs a freshly
// built Decider for l against the source for at most steps scheduler steps
// and judges the run under each target's class predicate with l's judge.
// Every class of one sweep must be predictive or every one untimed: a
// predictive run goes against Aτ and also decides the sketch escape clause,
// and one run serves every class. A run too short to judge fails with an
// error that names the bound and drvtable's -flag that raises it. Every unit
// builds its own monitor and runs on its worker's session, whose runtime and
// adversaries no other worker touches, so units are safe to run
// concurrently.
func (t *plan) sweep(cells []cellKey, l lang.Lang, steps int, flag string) {
	classes := make([]core.Class, len(cells))
	names := make([]string, len(cells))
	for i, k := range cells {
		classes[i] = t.rows[k.row].Cells[k.col].Class
		names[i] = classes[i].String()
	}
	for _, seed := range t.p.Seeds {
		for _, lb := range l.Sources(t.p.Procs, seed) {
			t.add(fmt.Sprintf("%s × %s seed %d source %s", l.Name, strings.Join(names, "+"), seed, lb.Name), cells,
				func(sess *monitor.Session) []error {
					res, tau := t.run(sess, l, classes[0], lb.New(), seed, steps)
					ev := core.Eval{Window: t.p.Window, Judge: l.Judge, Pool: sess.CheckPool(), Word: res.History}
					if tau != nil {
						ev.Sketch = core.SketchOf(res, tau.InvAt)
					}
					errs := make([]error, len(classes))
					for i, class := range classes {
						ev.Class = class
						err := ev.Check(res, lb.In)
						var short *core.ShortRunError
						if errors.As(err, &short) {
							err = fmt.Errorf("%w at the %d-step bound; raise -%s", err, steps, flag)
						}
						if err != nil {
							errs[i] = fmt.Errorf("seed %d source %s: %w", seed, lb.Name, err)
						}
					}
					return errs
				})
		}
	}
}

// predictiveCells lays out the PSD ✓ and PWD ✓ cells of a register or
// ledger row: Figure 8's V_O over l's object with l's LIN or SC check,
// judged with l's judge as the sketch escape clause. The two cells run the
// same Decider against the same Aτ, seed and source, so one sweep judges
// each run under both predicates. The SC search, with no real-time order to
// prune it, gets the shorter runs.
func (t *plan) predictiveCells(row int, l lang.Lang) {
	steps, flag := t.p.TimedSteps, "timed-steps"
	if l.Judge.Cond == lang.SC {
		steps, flag = t.p.SCSteps, "sc-steps"
	}
	psd := t.setCell(row, 2, l.Name, core.PSD, true, "Figure 8", "V_O over labelled sources, PSD predicate with sketch escape")
	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 8", "V_O over labelled sources, PWD predicate")
	t.sweep([]cellKey{psd, pwd}, l, steps, flag)
}

// walkUnit adds the Theorem 5.2 walk unit: it searches the shuffles of
// alpha's projections for a witness that l is not real-time oblivious and
// realizes the proof's execution chain on it against a fresh monitor from
// mk. Every target receives the same error; noWitness is the error when the
// search finds nothing.
func (t *plan) walkUnit(targets []cellKey, l lang.Lang, alpha trace.Word, n int, mk func() monitor.Monitor, noWitness string) {
	t.add(l.Name+" Theorem 5.2 walk", targets, func(*monitor.Session) []error {
		var err error
		if wit := core.FindRTOWitness(l.Judge, alpha, n); wit == nil {
			err = errors.New(noWitness)
		} else {
			_, err = RunWalk(mk(), n, wit.Alpha, wit.Shuffled)
		}
		errs := make([]error, len(targets))
		for i := range errs {
			errs[i] = err
		}
		return errs
	})
}

// ---------------------------------------------------------------- rows

// registerRow lays out the LIN_REG or SC_REG row.
func (t *plan) registerRow(l lang.Lang) {
	row := t.newRow(l.Name)

	// SD ✗ and WD ✗: the Lemma 5.1 swap defeats both an order-free monitor
	// and one wielding unbounded consensus power. One unit per monitor; both
	// feed both cells, and the lowest plan order wins, so a naive-order
	// failure is reported over a consensus-order one as in a sequential
	// sweep.
	evidence := "Lemma 5.1 swap: E≡F, x(E)∈L, x(F)∉L, against order-free and consensus-powered monitors"
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Lemma 5.1", evidence)
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Lemma 5.1", evidence)
	for _, mkM := range []func() monitor.Monitor{
		func() monitor.Monitor { return monitor.NewNaiveOrder(trace.Register(), adversary.ArrayAtomic) },
		func() monitor.Monitor { return monitor.NewConsensusOrder(trace.Register(), adversary.ArrayAtomic) },
	} {
		t.add(l.Name+" Lemma 5.1 swap", []cellKey{sd, wd}, func(*monitor.Session) []error {
			m := mkM()
			var err error
			if e := (Lemma51{Rounds: t.p.Rounds}).Verify(m); e != nil {
				err = fmt.Errorf("%s: %w", m.Name(), e)
			}
			return []error{err, err}
		})
	}

	// PSD ✓ and PWD ✓: Figure 8 with the LIN or SC check.
	t.predictiveCells(row, l)
}

// ledgerRow lays out the LIN_LED or SC_LED row.
func (t *plan) ledgerRow(l lang.Lang) {
	row := t.newRow(l.Name)

	// SD ✗ and WD ✗ via Theorem 5.2: the Appendix A witness word is not
	// real-time oblivious, and the shuffle walk realizes the proof's
	// execution chain against a concrete monitor.
	evidence := "Appendix A witness + Theorem 5.2 shuffle walk (E,F,E″ triples verified)"
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Thm 5.2", evidence)
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2", evidence)
	t.walkUnit([]cellKey{sd, wd}, l, core.AppendixAWitness(t.p.Procs), t.p.Procs, func() monitor.Monitor {
		return monitor.NewNaiveOrder(trace.Ledger(), adversary.ArrayAtomic)
	}, fmt.Sprintf("no RTO witness found for %s on the Appendix A word", l.Name))
	t.predictiveCells(row, l)
}

// ecLedRow lays out the EC_LED row: undecidable everywhere.
func (t *plan) ecLedRow() {
	l := lang.ECLed()
	row := t.newRow(l.Name)

	evidence := "Appendix A witness + Theorem 5.2 shuffle walk"
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Thm 5.2", evidence)
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2", evidence)
	t.walkUnit([]cellKey{sd, wd}, l, core.AppendixAWitness(t.p.Procs), t.p.Procs, func() monitor.Monitor {
		return monitor.NewECLed(adversary.ArrayAtomic)
	}, fmt.Sprintf("no RTO witness found for %s on the Appendix A word", l.Name))

	evidence = "Lemma 6.5 alternation attack: unbounded NOs on an in-language tight behaviour"
	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.5", evidence)
	pwd := t.setCell(row, 3, l.Name, core.PWD, false, "Lemma 6.5", evidence)
	t.add(l.Name+" Lemma 6.5 alternation", []cellKey{psd, pwd}, func(*monitor.Session) []error {
		err := (Lemma65{N: 2, Stages: t.p.Stages}).Verify(func(*adversary.Timed) monitor.Monitor {
			return monitor.NewECLed(adversary.ArrayAtomic)
		}, adversary.ArrayAtomic)
		return []error{err, err}
	})
}

// wecRow lays out the WEC_COUNT row: ✗SD ✓WD ✗PSD ✓PWD.
func (t *plan) wecRow() {
	l := lang.WECCount()
	row := t.newRow(l.Name)

	sd := t.setCell(row, 0, l.Name, core.SD, false, "Lemma 5.2",
		"prefix-extension attack on Figure 5: replayed NO on an in-language word")
	t.add(l.Name+" Lemma 5.2 attack", []cellKey{sd}, func(*monitor.Session) []error {
		res, err := counterAttack(t.p).Run(monitor.NewWEC(adversary.ArrayAtomic))
		if err == nil {
			err = res.Verify(l.Judge)
		}
		return []error{err}
	})

	wd := t.setCell(row, 1, l.Name, core.WD, true, "Figure 5",
		"amplified Figure 5 over labelled sources, WD predicate")
	t.sweep([]cellKey{wd}, l, t.p.Steps, "steps")

	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.2",
		"tight prefix-extension attack: NO on in-language word with x(E)=x~(E)")
	t.add(l.Name+" Lemma 6.2 tight attack", []cellKey{psd}, func(*monitor.Session) []error {
		res, err := counterAttack(t.p).RunTimed(func(*adversary.Timed) monitor.Monitor {
			return monitor.NewWEC(adversary.ArrayAtomic)
		}, adversary.ArrayAtomic)
		if err == nil {
			err = res.Verify(l.Judge)
			if err == nil && !res.TightSketch {
				err = fmt.Errorf("execution not tight: sketch escape clause remains open")
			}
		}
		return []error{err}
	})

	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 5",
		"amplified Figure 5 against Aτ over labelled sources, PWD predicate")
	t.sweep([]cellKey{pwd}, l, t.p.Steps, "steps")
}

// secRow lays out the SEC_COUNT row: ✗ ✗ ✗ ✓.
func (t *plan) secRow() {
	l := lang.SECCount()
	row := t.newRow(l.Name)

	// SD ✗ and PSD ✗ share the Figure 9 prefix-extension attack; each unit
	// replays it independently (the canonical schedule is deterministic, so
	// both runs produce identical facts), the PSD unit additionally closing
	// the predictive escape clause via the tightness check.
	runAttack := func() (*PrefixAttackResult, error) {
		res, err := counterAttack(t.p).RunTimed(func(tau *adversary.Timed) monitor.Monitor {
			return monitor.NewSEC(tau, adversary.ArrayAtomic)
		}, adversary.ArrayAtomic)
		if err == nil {
			err = res.Verify(l.Judge)
		}
		return res, err
	}
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Lemma 5.2",
		"prefix-extension attack on Figure 9: replayed NO on an in-language word")
	t.add(l.Name+" Lemma 5.2 attack", []cellKey{sd}, func(*monitor.Session) []error {
		_, err := runAttack()
		return []error{err}
	})

	// WD ✗ via Theorem 5.2: SEC_COUNT's clause (4) makes it real-time
	// sensitive; the walk realizes the chain on the witness.
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2",
		"clause-4 witness + shuffle walk")
	t.walkUnit([]cellKey{wd}, l, secWitness(), 2, func() monitor.Monitor {
		return monitor.NewWEC(adversary.ArrayAtomic)
	}, "no RTO witness on the clause-4 word")

	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.2",
		"tight prefix-extension attack on Figure 9")
	t.add(l.Name+" Lemma 6.2 tight attack", []cellKey{psd}, func(*monitor.Session) []error {
		res, err := runAttack()
		if err == nil && !res.TightSketch {
			err = fmt.Errorf("execution not tight")
		}
		return []error{err}
	})

	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 9",
		"amplified Figure 9 over labelled sources, PWD predicate")
	t.sweep([]cellKey{pwd}, l, t.p.TimedSteps, "timed-steps")
}

// counterAttack builds the Lemma 5.2 instance: one inc, then reads of 0
// forever (outside both counter languages); the good tail completes pending
// operations and reads the true total forever.
func counterAttack(p Params) PrefixAttack {
	n := 2
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	for r := 0; r < p.Rounds; r++ {
		b.Op(1, trace.OpRead, nil, trace.Int(0))
		b.Op(0, trace.OpRead, nil, trace.Int(0))
	}
	return PrefixAttack{
		N:   n,
		Bad: b.Word(),
		GoodTail: func(cut trace.Word) trace.Word {
			// Count incs invoked in the cut; every subsequent read returns
			// that total.
			incs := 0
			for _, s := range cut {
				if s.Kind == trace.Inv && s.Op == trace.OpInc {
					incs++
				}
			}
			tail := trace.NewB()
			// Complete pending invocations.
			for _, op := range trace.PendingOps(cut) {
				switch op.Op {
				case trace.OpInc:
					tail.Res(op.ID.Proc, trace.OpInc, trace.Unit{})
				case trace.OpRead:
					tail.Res(op.ID.Proc, trace.OpRead, trace.Int(incs))
				}
			}
			for r := 0; r < p.Rounds; r++ {
				for proc := 0; proc < n; proc++ {
					tail.Op(proc, trace.OpRead, nil, trace.Int(incs))
				}
			}
			return tail.Word()
		},
	}
}

// secWitness is the 2-process clause-4 witness: p0 incs, then p1 reads 1
// with the inc strictly preceding — the shuffle that defers the inc past the
// read over-reads.
func secWitness() trace.Word {
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	b.Op(1, trace.OpRead, nil, trace.Int(1))
	return b.Word()
}

// Render formats the rows like the paper's Table 1, marking failed cells.
func Render(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %-6s %-6s %-6s\n", "Language", "SD", "WD", "PSD", "PWD")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s", r.Lang)
		for _, c := range r.Cells {
			mark := c.Mark()
			if !c.OK() {
				mark += "!"
			}
			fmt.Fprintf(&sb, " %-6s", mark)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

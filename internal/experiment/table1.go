package experiment

import (
	"context"
	"fmt"
	"strings"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// Params sizes the Table 1 harness. The defaults keep the whole table under
// a minute; larger values sharpen the finite-run proxies for the ω-word
// quantifiers.
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
	// SwapRounds sizes the Lemma 5.1 construction; AttackRounds the bad
	// prefix of the prefix-extension attacks; Stages the Lemma 6.5
	// alternation count.
	SwapRounds, AttackRounds, Stages int
}

// DefaultParams returns the harness defaults.
func DefaultParams() Params {
	return Params{
		Procs:        3,
		Seeds:        []int64{1, 2},
		Steps:        30_000,
		TimedSteps:   4_000,
		SCSteps:      1_500,
		Window:       4,
		SwapRounds:   8,
		AttackRounds: 6,
		Stages:       3,
	}
}

// ShortParams returns a shrunk parameter set for quick runs (go test -short
// and smoke tests): one seed, shorter step bounds, smaller constructions.
// Every cell still reproduces — the whole table runs in well under a second
// — but the finite-run proxies for the ω-word quantifiers are coarser, and
// only seed 1 is swept (seed 2 needs longer runs for the PWD proxies).
func ShortParams() Params {
	return Params{
		Procs:        3,
		Seeds:        []int64{1},
		Steps:        3_000,
		TimedSteps:   600,
		SCSteps:      300,
		Window:       4,
		SwapRounds:   3,
		AttackRounds: 3,
		Stages:       2,
	}
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
}

// buildPlan lays out every cell of Table 1.
func buildPlan(p Params) *plan {
	t := &plan{p: p}
	t.registerRow(lang.LinReg(), true)
	t.registerRow(lang.SCReg(), false)
	t.ledgerRow(lang.LinLed(), true)
	t.ledgerRow(lang.SCLed(), false)
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
func (t *plan) add(name string, targets []cellKey, run func(ctx context.Context, sess *monitor.Session) []error) {
	t.units = append(t.units, unit{ord: len(t.units), name: name, targets: targets, run: run})
}

// ---------------------------------------------------------------- running

// runUntimed executes a monitor against A exhibiting the source's word, on
// the worker's pooled session.
func runUntimed(sess *monitor.Session, p Params, m monitor.Monitor, src adversary.Source, seed int64, steps int) *monitor.Result {
	adv := adversary.NewA(p.Procs, src)
	return sess.Run(monitor.Config{
		N:       p.Procs,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return adv, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
	})
}

// runTimed executes a monitor factory against Aτ wrapping A, on the worker's
// pooled session.
func runTimed(sess *monitor.Session, p Params, mk func(tau *adversary.Timed) monitor.Monitor, src adversary.Source, seed int64, steps int) (*monitor.Result, *adversary.Timed) {
	adv := adversary.NewA(p.Procs, src)
	tau := adversary.NewTimed(p.Procs, adv, adversary.ArrayAtomic)
	res := sess.Run(monitor.Config{
		N:       p.Procs,
		Monitor: mk(tau),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
	})
	return res, tau
}

// sweepUntimed emits one unit per (seed, labelled source): each unit runs a
// freshly built untimed monitor against the source and judges it under the
// class's predicate. Every unit allocates its own monitor, adversary and
// runtime, so units are safe to run concurrently.
func (t *plan) sweepUntimed(cell cellKey, mk func() monitor.Monitor, l lang.Lang, class core.Class, steps int) {
	for _, seed := range t.p.Seeds {
		for _, lb := range l.Sources(t.p.Procs, seed) {
			t.add(fmt.Sprintf("%s × %s seed %d source %s", l.Name, class, seed, lb.Name), []cellKey{cell},
				func(_ context.Context, sess *monitor.Session) []error {
					res := runUntimed(sess, t.p, mk(), lb.New(), seed, steps)
					ev := core.Eval{Class: class, Window: t.p.Window}
					if err := ev.Check(res, lb.In); err != nil {
						return []error{fmt.Errorf("seed %d source %s: %w", seed, lb.Name, err)}
					}
					return []error{nil}
				})
		}
	}
}

// sweepTimed emits one unit per (seed, labelled source) judging a timed
// monitor factory, with the sketch escape clause evaluated by sketchBad.
func (t *plan) sweepTimed(cell cellKey, mk func(tau *adversary.Timed) monitor.Monitor, l lang.Lang, class core.Class, steps int, sketchBad func(sk trace.Word) bool) {
	for _, seed := range t.p.Seeds {
		for _, lb := range l.Sources(t.p.Procs, seed) {
			t.add(fmt.Sprintf("%s × %s seed %d source %s", l.Name, class, seed, lb.Name), []cellKey{cell},
				func(_ context.Context, sess *monitor.Session) []error {
					res, tau := runTimed(sess, t.p, mk, lb.New(), seed, steps)
					ev := core.Eval{Class: class, Window: t.p.Window, SketchViolated: func() bool {
						sk, err := res.Sketch(t.p.Procs, tau.InvAt)
						if err != nil {
							return false
						}
						return sketchBad(sk)
					}}
					if err := ev.Check(res, lb.In); err != nil {
						return []error{fmt.Errorf("seed %d source %s: %w", seed, lb.Name, err)}
					}
					return []error{nil}
				})
		}
	}
}

// ---------------------------------------------------------------- rows

// registerRow lays out the LIN_REG or SC_REG row (lin selects which).
func (t *plan) registerRow(l lang.Lang, lin bool) {
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
		t.add(l.Name+" Lemma 5.1 swap", []cellKey{sd, wd}, func(_ context.Context, _ *monitor.Session) []error {
			m := mkM()
			var err error
			if e := (Lemma51{Rounds: t.p.SwapRounds}).Verify(m); e != nil {
				err = fmt.Errorf("%s: %w", m.Name(), e)
			}
			return []error{err, err}
		})
	}

	// PSD ✓ and PWD ✓: Figure 8 with the LIN or SC check.
	steps := t.p.TimedSteps
	mk := func(tau *adversary.Timed) monitor.Monitor {
		return monitor.NewLin(trace.Register(), tau, adversary.ArrayAtomic)
	}
	if !lin {
		steps = t.p.SCSteps
		mk = func(tau *adversary.Timed) monitor.Monitor {
			return monitor.NewSC(trace.Register(), tau, adversary.ArrayAtomic)
		}
	}
	sketchBad := func(sk trace.Word) bool { return l.SafetyViolated(sk) }
	psd := t.setCell(row, 2, l.Name, core.PSD, true, "Figure 8", "V_O over labelled sources, PSD predicate with sketch escape")
	t.sweepTimed(psd, mk, l, core.PSD, steps, sketchBad)
	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 8", "V_O over labelled sources, PWD predicate")
	t.sweepTimed(pwd, mk, l, core.PWD, steps, sketchBad)
}

// ledgerRow lays out the LIN_LED or SC_LED row.
func (t *plan) ledgerRow(l lang.Lang, lin bool) {
	row := t.newRow(l.Name)

	// SD ✗ and WD ✗ via Theorem 5.2: the Appendix A witness word is not
	// real-time oblivious, and the shuffle walk realizes the proof's
	// execution chain against a concrete monitor.
	evidence := "Appendix A witness + Theorem 5.2 shuffle walk (E,F,E″ triples verified)"
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Thm 5.2", evidence)
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2", evidence)
	t.add(l.Name+" Theorem 5.2 walk", []cellKey{sd, wd}, func(_ context.Context, _ *monitor.Session) []error {
		alpha := core.AppendixAWitness(t.p.Procs)
		wit := core.FindRTOWitness(l.SafetyViolated, alpha, t.p.Procs)
		var err error
		if wit == nil {
			err = fmt.Errorf("no RTO witness found for %s on the Appendix A word", l.Name)
		} else {
			_, err = RunWalk(monitor.NewNaiveOrder(trace.Ledger(), adversary.ArrayAtomic), t.p.Procs, wit.Alpha, wit.Shuffled)
		}
		return []error{err, err}
	})

	steps := t.p.TimedSteps
	mk := func(tau *adversary.Timed) monitor.Monitor {
		return monitor.NewLin(trace.Ledger(), tau, adversary.ArrayAtomic)
	}
	if !lin {
		steps = t.p.SCSteps
		mk = func(tau *adversary.Timed) monitor.Monitor {
			return monitor.NewSC(trace.Ledger(), tau, adversary.ArrayAtomic)
		}
	}
	sketchBad := func(sk trace.Word) bool { return l.SafetyViolated(sk) }
	psd := t.setCell(row, 2, l.Name, core.PSD, true, "Figure 8", "V_O over labelled sources, PSD predicate with sketch escape")
	t.sweepTimed(psd, mk, l, core.PSD, steps, sketchBad)
	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 8", "V_O over labelled sources, PWD predicate")
	t.sweepTimed(pwd, mk, l, core.PWD, steps, sketchBad)
}

// ecLedRow lays out the EC_LED row: undecidable everywhere.
func (t *plan) ecLedRow() {
	l := lang.ECLed()
	row := t.newRow(l.Name)

	evidence := "Appendix A witness + Theorem 5.2 shuffle walk"
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Thm 5.2", evidence)
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2", evidence)
	t.add(l.Name+" Theorem 5.2 walk", []cellKey{sd, wd}, func(_ context.Context, _ *monitor.Session) []error {
		alpha := core.AppendixAWitness(t.p.Procs)
		wit := core.FindRTOWitness(l.SafetyViolated, alpha, t.p.Procs)
		var err error
		if wit == nil {
			err = fmt.Errorf("no RTO witness found for %s on the Appendix A word", l.Name)
		} else {
			_, err = RunWalk(monitor.NewECLed(adversary.ArrayAtomic), t.p.Procs, wit.Alpha, wit.Shuffled)
		}
		return []error{err, err}
	})

	evidence = "Lemma 6.5 alternation attack: unbounded NOs on an in-language tight behaviour"
	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.5", evidence)
	pwd := t.setCell(row, 3, l.Name, core.PWD, false, "Lemma 6.5", evidence)
	t.add(l.Name+" Lemma 6.5 alternation", []cellKey{psd, pwd}, func(_ context.Context, _ *monitor.Session) []error {
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
	t.add(l.Name+" Lemma 5.2 attack", []cellKey{sd}, func(_ context.Context, _ *monitor.Session) []error {
		res, err := counterAttack(t.p).Run(monitor.NewWEC(adversary.ArrayAtomic))
		if err == nil {
			err = res.Verify(func(w trace.Word) bool {
				return check.WECSafety(w) == nil && check.Converges(w)
			})
		}
		return []error{err}
	})

	wd := t.setCell(row, 1, l.Name, core.WD, true, "Figure 5",
		"amplified Figure 5 over labelled sources, WD predicate")
	t.sweepUntimed(wd, func() monitor.Monitor {
		return monitor.AmplifyWAD(monitor.NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic)
	}, l, core.WD, t.p.Steps)

	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.2",
		"tight prefix-extension attack: NO on in-language word with x(E)=x~(E)")
	t.add(l.Name+" Lemma 6.2 tight attack", []cellKey{psd}, func(_ context.Context, _ *monitor.Session) []error {
		res, err := counterAttack(t.p).RunTimed(func(*adversary.Timed) monitor.Monitor {
			return monitor.NewWEC(adversary.ArrayAtomic)
		}, adversary.ArrayAtomic)
		if err == nil {
			err = res.Verify(func(w trace.Word) bool {
				return check.WECSafety(w) == nil && check.Converges(w)
			})
			if err == nil && !res.TightSketch {
				err = fmt.Errorf("execution not tight: sketch escape clause remains open")
			}
		}
		return []error{err}
	})

	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 5",
		"amplified Figure 5 against Aτ over labelled sources, PWD predicate")
	t.sweepTimed(pwd, func(*adversary.Timed) monitor.Monitor {
		return monitor.AmplifyWAD(monitor.NewWEC(adversary.ArrayAtomic), adversary.ArrayAtomic)
	}, l, core.PWD, t.p.Steps, func(sk trace.Word) bool {
		return check.WECSafety(sk) != nil
	})
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
			err = res.Verify(func(w trace.Word) bool {
				return check.SECSafety(w) == nil && check.Converges(w)
			})
		}
		return res, err
	}
	sd := t.setCell(row, 0, l.Name, core.SD, false, "Lemma 5.2",
		"prefix-extension attack on Figure 9: replayed NO on an in-language word")
	t.add(l.Name+" Lemma 5.2 attack", []cellKey{sd}, func(_ context.Context, _ *monitor.Session) []error {
		_, err := runAttack()
		return []error{err}
	})

	// WD ✗ via Theorem 5.2: SEC_COUNT's clause (4) makes it real-time
	// sensitive; the walk realizes the chain on the witness.
	wd := t.setCell(row, 1, l.Name, core.WD, false, "Thm 5.2",
		"clause-4 witness + shuffle walk")
	t.add(l.Name+" Theorem 5.2 walk", []cellKey{wd}, func(_ context.Context, _ *monitor.Session) []error {
		wit := core.FindRTOWitness(l.SafetyViolated, secWitness(), 2)
		var err error
		if wit == nil {
			err = fmt.Errorf("no RTO witness on the clause-4 word")
		} else {
			_, err = RunWalk(monitor.NewWEC(adversary.ArrayAtomic), 2, wit.Alpha, wit.Shuffled)
		}
		return []error{err}
	})

	psd := t.setCell(row, 2, l.Name, core.PSD, false, "Lemma 6.2",
		"tight prefix-extension attack on Figure 9")
	t.add(l.Name+" Lemma 6.2 tight attack", []cellKey{psd}, func(_ context.Context, _ *monitor.Session) []error {
		res, err := runAttack()
		if err == nil && !res.TightSketch {
			err = fmt.Errorf("execution not tight")
		}
		return []error{err}
	})

	pwd := t.setCell(row, 3, l.Name, core.PWD, true, "Figure 9",
		"amplified Figure 9 over labelled sources, PWD predicate")
	t.sweepTimed(pwd, func(tau *adversary.Timed) monitor.Monitor {
		return monitor.AmplifyWAD(monitor.NewSEC(tau, adversary.ArrayAtomic), adversary.ArrayAtomic)
	}, l, core.PWD, t.p.TimedSteps, func(sk trace.Word) bool {
		return check.SECSafety(sk) != nil
	})
}

// counterAttack builds the Lemma 5.2 instance: one inc, then reads of 0
// forever (outside both counter languages); the good tail completes pending
// operations and reads the true total forever.
func counterAttack(p Params) PrefixAttack {
	n := 2
	b := trace.NewB()
	b.Op(0, trace.OpInc, nil, trace.Unit{})
	for r := 0; r < p.AttackRounds; r++ {
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
			for r := 0; r < p.AttackRounds; r++ {
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

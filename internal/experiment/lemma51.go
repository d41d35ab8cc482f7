package experiment

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
)

// Lemma51 is the write/read swap experiment of Lemma 5.1, the paper's
// impossibility construction for LIN_REG and SC_REG against A.
//
// Two processes run "almost synchronously" for Rounds rounds. In execution E,
// round r is: p0 sends write(r) and receives its response, then p1 sends
// read() and receives r — every prefix linearizable. Execution F swaps the
// two send/receive pairs: p1 reads r before p0 writes it — the first-round
// prefix already fails sequential consistency (a read of a value never
// written), so x(F) is outside both languages. All shared-memory computation
// (the monitor's Lines 02/05/06 blocks) occurs in the same global order in
// both executions; only the purely local send/receive events swap. E and F
// are therefore indistinguishable to both processes, and any monitor — no
// matter its communication pattern or primitive power — reports identical
// verdict sequences, which contradicts weak (hence also strong) decidability.
type Lemma51 struct {
	// Rounds is the number of write/read rounds.
	Rounds int
}

// Lemma51Result carries the machine-checked facts of one run of the
// construction.
type Lemma51Result struct {
	// WordE and WordF are the exhibited inputs x(E) and x(F).
	WordE, WordF trace.Word
	// EInLang and FInLang report the languages' safety tests on the words:
	// E must pass, F must fail (for both LIN_REG and SC_REG).
	ELinOK, FLinOK bool
	ESCOK, FSCOK   bool
	// Indistinguishable reports E ≡ F: every process observed identical
	// invocation, response and verdict streams.
	Indistinguishable bool
	// DiffProc is the first process whose observations differ (−1 if none).
	DiffProc int
	// ResE and ResF are the full runs, for inspection.
	ResE, ResF *monitor.Result
}

// Words builds the two input words of the construction.
func (l Lemma51) Words() (wE, wF trace.Word) {
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	bE, bF := trace.NewB(), trace.NewB()
	for r := 1; r <= rounds; r++ {
		// E: write(r) completes, then read returns r.
		bE.Inv(0, trace.OpWrite, trace.Int(r)).Res(0, trace.OpWrite, trace.Unit{})
		bE.Inv(1, trace.OpRead, nil).Res(1, trace.OpRead, trace.Int(r))
		// F: the same two operations with their send/receive events swapped.
		bF.Inv(1, trace.OpRead, nil).Res(1, trace.OpRead, trace.Int(r))
		bF.Inv(0, trace.OpWrite, trace.Int(r)).Res(0, trace.OpWrite, trace.Unit{})
	}
	return bE.Word(), bF.Word()
}

// Schedules builds the step placements for E and F. Both run the processes'
// computation blocks in the same order (p0's block, then p1's block, at the
// top of every round); they differ only in when the cursor emits the four
// round symbols.
func (l Lemma51) Schedules() (sE, sF Schedule) {
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	for r := 0; r < rounds; r++ {
		// Computation blocks in identical order...
		head := Schedule{{Block, 0}, {Block, 1}}
		// ...then the events: E completes p0's operation first,
		sE = append(sE, head...)
		sE = append(sE,
			Item{Emit, 0}, Item{Block, 0}, Item{Emit, 0},
			Item{Emit, 1}, Item{Block, 1}, Item{Emit, 1},
		)
		// ...while F completes p1's first. The interior blocks only carry a
		// process from its granted send gate to its receive gate — no shared
		// memory is touched.
		sF = append(sF, head...)
		sF = append(sF,
			Item{Emit, 1}, Item{Block, 1}, Item{Emit, 1},
			Item{Emit, 0}, Item{Block, 0}, Item{Emit, 0},
		)
	}
	// Let both processes run their final report blocks and exit.
	sE = append(sE, Item{Block, 0}, Item{Block, 1})
	sF = append(sF, Item{Block, 0}, Item{Block, 1})
	return sE, sF
}

// Run executes the construction against the given monitor and returns the
// checked facts. The monitor is built fresh for each execution.
func (l Lemma51) Run(m monitor.Monitor) (*Lemma51Result, error) {
	wE, wF := l.Words()
	sE, sF := l.Schedules()
	resE, err := ScheduledRun(m, 2, wE, sE)
	if err != nil {
		return nil, fmt.Errorf("lemma 5.1 execution E: %w", err)
	}
	resF, err := ScheduledRun(m, 2, wF, sF)
	if err != nil {
		return nil, fmt.Errorf("lemma 5.1 execution F: %w", err)
	}
	ind, diff := Indistinguishable(resE, resF)
	linViol := lang.LinReg().SafetyViolated
	scViol := lang.SCReg().SafetyViolated
	return &Lemma51Result{
		WordE: resE.History, WordF: resF.History,
		ELinOK: !linViol(resE.History), FLinOK: !linViol(resF.History),
		ESCOK: !scViol(resE.History), FSCOK: !scViol(resF.History),
		Indistinguishable: ind, DiffProc: diff,
		ResE: resE, ResF: resF,
	}, nil
}

// Verify runs the construction and converts it into a pass/fail judgement:
// it returns nil exactly when the experiment demonstrates the impossibility —
// E in the language, F outside it, and the monitor unable to distinguish
// them.
func (l Lemma51) Verify(m monitor.Monitor) error {
	r, err := l.Run(m)
	if err != nil {
		return err
	}
	if !r.ELinOK || !r.ESCOK {
		return fmt.Errorf("lemma 5.1: x(E) unexpectedly violates the language safety tests")
	}
	if r.FLinOK {
		return fmt.Errorf("lemma 5.1: x(F) unexpectedly linearizable")
	}
	if r.FSCOK {
		return fmt.Errorf("lemma 5.1: x(F) unexpectedly sequentially consistent")
	}
	if !r.Indistinguishable {
		return fmt.Errorf("lemma 5.1: executions distinguishable (process %d): the monitor broke the construction's premise — check that its blocks run wait-free", r.DiffProc)
	}
	return nil
}

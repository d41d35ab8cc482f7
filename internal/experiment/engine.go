package experiment

import (
	"context"
	"fmt"
	"sync"

	"github.com/drv-go/drv/internal/monitor"
)

// The parallel experiment engine. Table 1 decomposes into independent units
// of work — one per (seed, labelled source) of a row's possibility sweep,
// feeding every cell that judges the same run (a register or ledger row's
// PSD and PWD cells share theirs), and one per impossibility construction —
// because every run seeds its own scheduling policy and allocates its own
// runtime, adversary and monitor state (no package in this module holds
// mutable package-level state). The engine fans the units onto a bounded
// worker pool and folds their errors back into cells deterministically:
// each cell's error is the one produced by the unit that comes first in the
// sequential plan order, so the rendered table is byte-identical no matter
// how many workers run or how they interleave.

// Options configures how the Table 1 plan is executed.
type Options struct {
	// Workers is the worker-pool size. Values ≤ 1 run the plan sequentially
	// on the calling goroutine, in plan order.
	Workers int
	// OnCell, when non-nil, receives one event per completed cell, as soon
	// as the cell's last unit finishes. Events are delivered serially (never
	// concurrently) but, with more than one worker, in nondeterministic cell
	// order. The callback must not call back into the engine.
	OnCell func(CellUpdate)
	// FailFast cancels all outstanding units as soon as any unit fails.
	// Cells whose units were skipped report the cancellation cause as their
	// error, so a rendered fail-fast table marks them with '!'.
	FailFast bool
}

// CellUpdate is one streaming progress event: a cell of Table 1 whose
// reproduction just finished.
type CellUpdate struct {
	// Row and Col locate the cell in the rendered table (row in paper
	// order, column 0–3 for SD, WD, PSD, PWD).
	Row, Col int
	// Cell is the completed cell, error folded in.
	Cell Cell
	// Done and Total count completed cells, including this one.
	Done, Total int
}

// cellKey addresses one cell of the plan.
type cellKey struct{ row, col int }

// unit is one independently schedulable execution of the plan. Its run
// function performs real monitored executions and returns one error slot per
// target cell (nil for success), in target order.
type unit struct {
	// ord is the unit's position in the sequential plan order; it breaks
	// ties deterministically when several units of one cell fail.
	ord  int
	name string
	// targets are the cells this unit reports into. Most units feed a
	// single cell; the impossibility constructions that prove an SD ✗ and a
	// WD ✗ at once feed two.
	targets []cellKey
	// run performs the unit's monitored runs on sess, the running worker's
	// pooled runtime+session pair: each engine worker owns one for its whole
	// batch, so consecutive units stop spawning and tearing down process
	// coroutines per monitored run.
	run func(sess *monitor.Session) []error
}

// Run executes the full Table 1 plan under ctx and returns the rows in paper
// order. The returned error is nil when every unit ran; it reports the
// cancellation cause when ctx was cancelled (or FailFast tripped), in which
// case the skipped cells carry that cause as their Err. The rows themselves
// are then complete and renderable. Params that fail Validate run nothing:
// Run returns no rows and the *ParamError.
//
// Cancellation is checked at unit boundaries: units already in flight run to
// their step bound (each is bounded by Params' step limits), so a deadline
// can be overshot by the duration of the slowest in-flight units.
func Run(ctx context.Context, p Params, opts Options) ([]Row, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := buildPlan(p, nil)
	a := newAgg(pl, opts.OnCell)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	execUnit := func(sess *monitor.Session, u unit) {
		var errs []error
		if cause := context.Cause(ctx); cause != nil {
			errs = make([]error, len(u.targets))
			for i := range errs {
				errs[i] = fmt.Errorf("%s skipped: %w", u.name, cause)
			}
		} else {
			errs = u.run(sess)
			if len(errs) != len(u.targets) {
				panic(fmt.Sprintf("experiment: unit %q reported %d errors for %d targets", u.name, len(errs), len(u.targets)))
			}
		}
		if cell, failed := a.record(u, errs); failed != nil && opts.FailFast {
			cancel(fmt.Errorf("fail-fast: %s × %s: %w", cell.Lang, cell.Class, failed))
		}
	}

	pool := NewPool(WorkerCount(len(pl.units), opts.Workers))
	defer pool.Close()
	sessions := make([]*monitor.Session, pool.Workers())
	for w := range sessions {
		sessions[w] = monitor.NewSession()
	}
	defer func() {
		for _, sess := range sessions {
			sess.Close()
		}
	}()
	pool.Run(len(pl.units), func(w, i int) { execUnit(sessions[w], pl.units[i]) })
	return a.rows, context.Cause(ctx)
}

// WorkerCount normalizes a requested pool size against the work size: at
// least one worker, at most one per unit of work. Callers size a Pool with
// it, and any per-worker state (one pooled runtime+session pair per worker)
// by the pool's Workers, and index that state safely with the worker ids fn
// receives.
func WorkerCount(total, workers int) int {
	if workers < 1 || total < 1 {
		return 1
	}
	if workers > total {
		return total
	}
	return workers
}

// Pool is a reusable bounded worker pool: the worker goroutines persist
// across Run batches, so a workload of several batches — the explorer runs
// its sweep and then its shrinks — pays goroutine startup once instead of
// once per batch, and per-worker state (a pooled runtime+session pair
// indexed by the worker id fn receives) stays owned by the same workers for
// the pool's whole life.
type Pool struct {
	workers int
	jobs    chan func(worker int)
	wg      sync.WaitGroup
}

// NewPool starts a pool of the given size. Sizes ≤ 1 yield an inline pool
// that runs every batch on the calling goroutine as worker 0 and spawns
// nothing. Close releases the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.jobs = make(chan func(worker int))
	for w := 0; w < workers; w++ {
		w := w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn(w)
			}
		}()
	}
	return p
}

// Workers returns the pool size: the exclusive upper bound of the worker ids
// Run passes to fn, so callers size per-worker state slices with it.
func (p *Pool) Workers() int { return p.workers }

// Run dispatches indices 0..total−1 onto the pool and blocks until every
// call has finished. Indices are dispatched in order; results must be
// folded by index (not completion order) for deterministic output, and fn
// must confine its writes to per-index or per-worker state.
func (p *Pool) Run(total int, fn func(worker, i int)) {
	if p.jobs == nil {
		for i := 0; i < total; i++ {
			fn(0, i)
		}
		return
	}
	var batch sync.WaitGroup
	batch.Add(total)
	for i := 0; i < total; i++ {
		i := i
		p.jobs <- func(w int) {
			defer batch.Done()
			fn(w, i)
		}
	}
	batch.Wait()
}

// Close shuts the worker goroutines down and waits for them to exit. The
// pool must not be used afterwards; Close is idempotent.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
		p.jobs = nil
	}
}

// agg folds unit errors back into cells. All mutation happens under mu, so
// OnCell events are serialized and Done counts are consistent.
type agg struct {
	mu      sync.Mutex
	rows    []Row
	pending map[cellKey]int
	best    map[cellKey]ordErr
	done    int
	total   int
	onCell  func(CellUpdate)
}

// ordErr is a candidate cell error tagged with its unit's plan order; the
// lowest ord wins, reproducing the error the sequential sweep would return.
type ordErr struct {
	ord int
	err error
}

func newAgg(pl *plan, onCell func(CellUpdate)) *agg {
	a := &agg{
		rows:    pl.rows,
		pending: make(map[cellKey]int),
		best:    make(map[cellKey]ordErr),
		onCell:  onCell,
	}
	for _, u := range pl.units {
		for _, k := range u.targets {
			a.pending[k]++
		}
	}
	a.total = len(a.pending)
	return a
}

// record folds one finished unit in and fires completion events for any cell
// whose last unit this was. It returns the unit's first non-nil error along
// with a copy of the cell it hit (for fail-fast reporting), or a nil error.
// The copy is taken under a.mu: callers must not touch a.rows directly while
// other workers are still recording.
func (a *agg) record(u unit, errs []error) (Cell, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var failed error
	var failedAt Cell
	for i, k := range u.targets {
		if errs[i] != nil {
			if failed == nil {
				failed, failedAt = errs[i], a.rows[k.row].Cells[k.col]
			}
			if b, ok := a.best[k]; !ok || u.ord < b.ord {
				a.best[k] = ordErr{ord: u.ord, err: errs[i]}
			}
		}
		a.pending[k]--
		if a.pending[k] == 0 {
			a.rows[k.row].Cells[k.col].Err = a.best[k].err
			a.done++
			if a.onCell != nil {
				a.onCell(CellUpdate{
					Row:   k.row,
					Col:   k.col,
					Cell:  a.rows[k.row].Cells[k.col],
					Done:  a.done,
					Total: a.total,
				})
			}
		}
	}
	return failedAt, failed
}

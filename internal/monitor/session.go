package monitor

import (
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/sched"
)

// DefaultMaxSteps bounds an execution when Config.MaxSteps is unset (≤ 0).
// It is deliberately generous: the services' finite behaviour scripts or the
// caller's step bound end real experiments long before it trips.
const DefaultMaxSteps = 1_000_000

// Session executes monitored runs on one reusable runtime. Where Run pays a
// fresh runtime — N spawned-and-torn-down process coroutines plus freshly allocated
// result buffers — per execution, a Session resets its pooled runtime,
// appends into the same pre-sized Result buffers run after run, and hands
// every monitor logic the buffers the same logic grew in earlier runs (its
// board rows, snapshot buffers, chains with their sketch builders, and
// checkers), so workloads that execute thousands of scenarios (the
// explorer, the Table 1 sweeps, drvserve's replays) set up each execution,
// and run its rounds, without allocating once the session is warm.
//
// A Session is not safe for concurrent use: pooled workloads give each
// worker its own. Run returns the session-owned Result, which is valid until
// the next Run; callers that retain results across runs must copy what they
// keep (or use the package-level Run, which dedicates a session to the one
// execution).
type Session struct {
	rt     *sched.Runtime
	res    Result
	bodies []func(p *sched.Proc)
	sc     scratch

	// The session's adversaries, re-armed by Cursor and Timed.
	adv  *adversary.A
	taus map[adversary.ArrayKind]*adversary.Timed

	// Per-run state read by the pooled process bodies.
	svc    adversary.Service
	stats  adversary.Stats
	logics []Logic
	report func(proc, index int, v Verdict, step, hist int)

	// The default loop's crash schedule, and crashAt bound once as the
	// runtime's before-step hook; before and maxSteps are the started run's
	// hook and step bound.
	crash     map[int][]int
	crashHook func(step int)
	before    func(step int)
	maxSteps  int
}

// NewSession returns an empty session; its runtime is created lazily at the
// first Run and grows to the largest process count seen.
func NewSession() *Session { return &Session{} }

// CheckPool returns the session's consistency-checker pool. Logics that
// re-check histories borrow grown checkers from it run after run, so small
// scenarios batched onto one pooled runtime amortize checker setup the same
// way they amortize the runtime's: after the first few runs of a workload,
// borrowing is allocation-free. Like the session itself, the pool is
// single-owner state — it must only be used from this session's runs.
func (s *Session) CheckPool() *check.Pool {
	if s.sc.checks == nil {
		s.sc.checks = check.NewPool()
	}
	return s.sc.checks
}

// Cursor returns the session's adversary cursor re-armed for n processes
// exhibiting src's word (adversary.A.Reset), creating it on the first call.
// A run's Result.History aliases its service's word, so the word of a run
// against the cursor is valid until the next Cursor call, like the Result.
func (s *Session) Cursor(n int, src adversary.Source) *adversary.A {
	if s.adv == nil {
		s.adv = adversary.NewA(n, src)
	} else {
		s.adv.Reset(n, src)
	}
	return s.adv
}

// Timed returns the session's timed adversary with an announcement array of
// the given kind, re-armed around inner for n processes
// (adversary.Timed.Reset); the session keeps one per kind. Its words and
// views are valid until the next Timed call for the kind.
func (s *Session) Timed(n int, inner adversary.Service, kind adversary.ArrayKind) *adversary.Timed {
	tau := s.taus[kind]
	if tau == nil {
		if s.taus == nil {
			s.taus = map[adversary.ArrayKind]*adversary.Timed{}
		}
		tau = adversary.NewTimed(n, inner, kind)
		s.taus[kind] = tau
	} else {
		tau.Reset(n, inner)
	}
	return tau
}

// Close tears down the pooled runtime and drops it. The session may run
// again afterwards: the next Run builds a fresh runtime. Closing twice is
// safe.
func (s *Session) Close() {
	if s.rt != nil {
		s.rt.Stop()
		s.rt = nil
	}
}

// body returns the pooled Figure-1 loop for process index i. The closure is
// built once per index and reused by every run: all per-run state (service,
// logics, result buffers) is read through the session.
func (s *Session) body(i int) func(p *sched.Proc) {
	return func(p *sched.Proc) {
		logic := s.logics[i]
		res := &s.res
		for {
			v, ok := s.svc.NextInv(p.ID) // Line 01
			if !ok {
				return
			}
			logic.PreSend(p, v)   // Line 02
			s.svc.Send(p, v)      // Line 03
			resp := s.svc.Recv(p) // Line 04
			// Record the round's observation before Line 05 publishes it:
			// PostRecv's snapshot can yield, and a run cut there has still
			// shared the triple other processes may judge.
			res.Invs[i] = append(res.Invs[i], v)
			res.Responses[i] = append(res.Responses[i], resp)
			logic.PostRecv(p, resp) // Line 05
			d := logic.Decide(p)    // Line 06
			step := s.rt.Steps()
			res.Verdicts[i] = append(res.Verdicts[i], d)
			res.StepAt[i] = append(res.StepAt[i], step)
			src, hl := 0, 0
			if s.stats != nil {
				src = s.stats.Pulled()
				hl = s.stats.HistLen()
			}
			res.PulledAt[i] = append(res.PulledAt[i], src)
			res.HistAt[i] = append(res.HistAt[i], hl)
			if s.report != nil {
				s.report(i, len(res.Verdicts[i])-1, d, step, hl)
			}
		}
	}
}

// crashAt crashes the processes the crash schedule lists at step, before
// the step is scheduled.
func (s *Session) crashAt(step int) {
	for _, id := range s.crash[step] {
		s.rt.Crash(id)
		// Tell the service too: a crashed process has no further events in
		// the exhibited word.
		if c, ok := s.svc.(interface{ Crash(id int) }); ok {
			c.Crash(id)
		}
	}
}

// resetResult re-sizes the reusable result buffers for an n-process run:
// outer slices keep their backing arrays, inner ones rewind to length zero
// with capacity retained, so steady-state appends stop allocating once the
// buffers have grown to the workload's sizes.
func (s *Session) resetResult(n int) {
	res := &s.res
	res.Steps = 0
	res.Drained = false
	res.History = nil
	grow(&res.Verdicts, n)
	grow(&res.Responses, n)
	grow(&res.Invs, n)
	grow(&res.StepAt, n)
	grow(&res.PulledAt, n)
	grow(&res.HistAt, n)
}

// grow re-sizes a per-process buffer family to n rows, truncating each row in
// place so its backing array is reused by the next run's appends. Rows beyond
// n keep their arrays for a later run with more processes.
func grow[T any](s *[][]T, n int) {
	if cap(*s) < n {
		*s = append((*s)[:cap(*s)], make([][]T, n-cap(*s))...)
	}
	*s = (*s)[:n]
	for i := range *s {
		(*s)[i] = (*s)[i][:0]
	}
}

// Run executes one monitored run on the pooled runtime and returns the
// session-owned result. The execution is byte-for-byte identical to what the
// package-level Run produces for the same Config: the pooled runtime resets
// to the exact New-runtime state (step counts, actor IDs, schedules).
func (s *Session) Run(cfg Config) *Result {
	s.Start(cfg)
	if cfg.Drive == nil {
		return s.Resume()
	}
	cfg.Drive(s.rt)
	return s.result()
}

// Start sets up cfg's run on the pooled runtime, as Run does, without taking
// a step; Resume takes them. cfg.Drive is ignored.
func (s *Session) Start(cfg Config) {
	if s.rt == nil {
		s.rt = sched.New(cfg.N, nil)
	} else {
		s.rt.Reset(cfg.N, nil)
	}
	rt := s.rt
	svc, aux := cfg.NewService(rt)
	if cfg.Policy != nil {
		rt.SetPolicy(cfg.Policy(aux))
	} else if len(aux) > 0 {
		rt.SetPolicy(sched.Prioritize(aux[0], sched.RoundRobin()))
	} else {
		rt.SetPolicy(sched.RoundRobin())
	}
	s.svc = svc
	s.stats, _ = svc.(adversary.Stats)
	s.report = cfg.Report
	s.logics = cfg.Monitor.New(cfg.N)
	s.CheckPool() // rewind reclaims the pool's checkers
	s.sc.rewind(cfg.N)
	attachAll(s.logics, &s.sc)
	s.resetResult(cfg.N)
	for len(s.bodies) < cfg.N {
		s.bodies = append(s.bodies, s.body(len(s.bodies)))
	}
	for i := 0; i < cfg.N; i++ {
		rt.Spawn(i, s.bodies[i])
	}

	s.maxSteps = cfg.MaxSteps
	if s.maxSteps <= 0 {
		s.maxSteps = DefaultMaxSteps
	}
	s.before = nil
	if len(cfg.Crash) > 0 {
		s.crash = cfg.Crash
		if s.crashHook == nil {
			s.crashHook = s.crashAt
		}
		s.before = s.crashHook
	}
}

// Resume runs the started execution until it ends, at a stall or at
// MaxSteps, and returns the session-owned result; or until its service's
// input runs dry (sched.Runtime.Suspended), when it returns nil and a later
// Resume goes on from there.
func (s *Session) Resume() *Result {
	s.rt.RunWith(s.maxSteps-s.rt.Steps(), s.before)
	if s.rt.Suspended() {
		return nil
	}
	s.res.Drained = s.rt.Steps() < s.maxSteps
	return s.result()
}

// result completes the session-owned result of the run.
func (s *Session) result() *Result {
	s.res.Steps = s.rt.Steps()
	s.res.History = s.svc.History()
	return &s.res
}

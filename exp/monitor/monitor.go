package monitor

import (
	"errors"
	"fmt"
	"strings"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	imonitor "github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// Verdict is a value a monitor process reports in Line 06 of the generic
// algorithm (Figure 1).
type Verdict = trace.Verdict

const (
	// Yes reports the behaviour is (still) considered correct.
	Yes = trace.Yes
	// No reports a violation.
	No = trace.No
	// Maybe reports insufficient information (three-valued monitors, §7).
	Maybe = trace.Maybe
)

// Result is the outcome of a monitored execution: the exhibited history, the
// per-process verdict streams, and the alignment indices relating each
// verdict to the history prefix it judged.
type Result = trace.Result

// Object is a sequential object specification; see the exp/trace package for
// the provided objects (Register, Counter, Queue, Stack, Ledger, …) and the
// interfaces custom objects implement.
type Object = trace.Object

// DefaultMaxSteps bounds an execution when Config.MaxSteps is unset (≤ 0).
// It is far above what any recorded history of reasonable size needs; runs
// normally end when the history is fully replayed.
const DefaultMaxSteps = imonitor.DefaultMaxSteps

// Logic selects which of the paper's monitors judges the history.
type Logic uint8

const (
	// LogicLin is the Figure-8 predictive linearizability monitor V_O; it
	// requires Config.Object.
	LogicLin Logic = iota + 1
	// LogicSC is V_O's sequential-consistency variant (Section 6.2); it
	// requires Config.Object.
	LogicSC
	// LogicWEC is the Figure-5 weak decider for WEC_COUNT (counter
	// histories: inc/read operations).
	LogicWEC
	// LogicSEC is the Figure-9 predictive-weak decider for SEC_COUNT
	// (counter histories).
	LogicSEC
	// LogicECLedger is the best-effort eventually-consistent-ledger monitor
	// (ledger histories: append/get operations). EC_LED is not predictively
	// weakly decidable (Lemma 6.5); the monitor exists to exhibit that
	// impossibility.
	LogicECLedger
)

// logicNames is the logic table: String prints it and ParseLogic reads it.
var logicNames = [...]string{LogicLin: "lin", LogicSC: "sc", LogicWEC: "wec", LogicSEC: "sec", LogicECLedger: "ecledger"}

// String names the logic as ParseLogic reads it.
func (l Logic) String() string {
	if l >= LogicLin && l <= LogicECLedger {
		return logicNames[l]
	}
	return fmt.Sprintf("logic(%d)", uint8(l))
}

// Array selects the shared announcement-array implementation the timed
// adversary Aτ uses to build views (Section 6.1).
type Array uint8

const (
	// ArrayAtomic uses the model's one-step atomic snapshot; views are
	// totally ordered by containment. The zero Config value defaults here.
	ArrayAtomic Array = iota + 1
	// ArrayAADGMS uses the wait-free read/write snapshot protocol.
	ArrayAADGMS
	// ArrayCollect uses a plain collect; views may become incomparable, in
	// which case sketch reconstruction fails (the Section 6.2 caveat).
	ArrayCollect
)

// ParseLogic returns the logic String names name.
func ParseLogic(name string) (Logic, error) {
	return parse("logic", name, LogicLin, LogicECLedger)
}

// String names the array as ParseArray reads it, and as the internal
// adversary names its kind; a value outside the three prints as array(N).
func (a Array) String() string {
	if k, err := a.kind(); err == nil {
		return k.String()
	}
	return fmt.Sprintf("array(%d)", uint8(a))
}

// ParseArray returns the array String names name; empty names the default,
// ArrayAtomic.
func ParseArray(name string) (Array, error) {
	if name == "" {
		return ArrayAtomic, nil
	}
	return parse("array", name, ArrayAtomic, ArrayCollect)
}

// parse returns the value of first..last that String names name, or an
// error that lists their names.
func parse[T interface {
	~uint8
	fmt.Stringer
}](noun, name string, first, last T) (T, error) {
	var names []string
	for v := first; v <= last; v++ {
		if v.String() == name {
			return v, nil
		}
		names = append(names, v.String())
	}
	return 0, fmt.Errorf("unknown %s %q (want %s or %s)", noun, name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}

// kind converts the array to the adversary's kind, which numbers the three
// arrays alike; zero means ArrayAtomic.
func (a Array) kind() (adversary.ArrayKind, error) {
	if a > ArrayCollect {
		return 0, fmt.Errorf("monitor: unknown array kind %d", uint8(a))
	}
	return adversary.ArrayKind(max(a, ArrayAtomic)), nil
}

// Config describes one monitored replay of a recorded history.
type Config struct {
	// N is the number of monitor processes; it must cover every process
	// mentioned in History.
	N int
	// Object is the sequential specification the history is judged against.
	// Required for LogicLin and LogicSC; ignored by the counter and ledger
	// logics, whose specifications are fixed.
	Object Object
	// Logic selects the monitor.
	Logic Logic
	// History is the recorded well-formed concurrent history to replay
	// (typically Recorder.History()).
	History trace.Word
	// Array selects Aτ's announcement array; zero means ArrayAtomic.
	Array Array
	// MaxSteps bounds the scheduler; ≤ 0 means DefaultMaxSteps.
	MaxSteps int
}

// counter reports whether the logic reads every counter read's response as
// an integer.
func (cfg *Config) counter() bool { return cfg.Logic == LogicWEC || cfg.Logic == LogicSEC }

// settings checks everything but the history.
func (cfg *Config) settings() (adversary.ArrayKind, error) {
	if cfg.N < 1 {
		return 0, fmt.Errorf("monitor: N must be ≥ 1, got %d", cfg.N)
	}
	kind, err := cfg.Array.kind()
	if err != nil {
		return 0, err
	}
	switch cfg.Logic {
	case LogicLin, LogicSC:
		if cfg.Object == nil {
			return 0, fmt.Errorf("monitor: logic %v requires an Object", cfg.Logic)
		}
	case LogicWEC, LogicSEC, LogicECLedger:
	default:
		return 0, fmt.Errorf("monitor: unknown logic %d", uint8(cfg.Logic))
	}
	return kind, nil
}

// source is the adversary source of a replay: it takes the events Run's
// history or a Stream's caller supplies and checks each against the
// finite-prefix conditions of a monitor's input — a well-formed word over
// processes 0..n-1 whose counter reads return integers. The first event
// that fails ends the replay's input and is kept as err. It is the one
// check of a replayed history.
type source struct {
	next    func() (trace.Symbol, bool)
	n       int
	counter bool
	pending []pendingOp // per process: its invocation awaiting a response
	events  int         // events taken from next
	err     error
}

type pendingOp struct {
	op   string
	pos  int
	open bool
}

// Next implements the adversary's Source.
func (s *source) Next() (trace.Symbol, bool) {
	if s.err != nil {
		return trace.Symbol{}, false
	}
	sym, ok := s.next()
	if !ok {
		return trace.Symbol{}, false
	}
	if s.err = s.check(sym); s.err != nil {
		return trace.Symbol{}, false
	}
	return sym, true
}

// drain takes the rest of the caller's events, checking them while no event
// has failed yet.
func (s *source) drain() {
	for {
		sym, ok := s.next()
		if !ok {
			return
		}
		if s.err == nil {
			s.err = s.check(sym)
		} else {
			s.events++
		}
	}
}

// check validates the next event; its messages name the event's position in
// the history, and a well-formedness fault wraps trace.ErrNotWellFormed.
func (s *source) check(sym trace.Symbol) error {
	i := s.events
	s.events++
	if sym.Proc < 0 {
		return fmt.Errorf("monitor: history mentions process %d; processes are numbered from 0", sym.Proc)
	}
	if sym.Proc >= s.n {
		return fmt.Errorf("monitor: history symbol %d names process %d but N is %d", i, sym.Proc, s.n)
	}
	p := &s.pending[sym.Proc]
	switch sym.Kind {
	case trace.Inv:
		if p.open {
			return fmt.Errorf("monitor: %w: process %d invokes %q at position %d while %q from position %d is pending",
				trace.ErrNotWellFormed, sym.Proc, sym.Op, i, p.op, p.pos)
		}
		*p = pendingOp{op: sym.Op, pos: i, open: true}
	case trace.Res:
		if !p.open {
			return fmt.Errorf("monitor: %w: process %d responds %q at position %d with no pending invocation",
				trace.ErrNotWellFormed, sym.Proc, sym.Op, i)
		}
		if p.op != sym.Op {
			return fmt.Errorf("monitor: %w: process %d response %q at position %d does not match pending invocation %q",
				trace.ErrNotWellFormed, sym.Proc, sym.Op, i, p.op)
		}
		p.open = false
	default:
		return fmt.Errorf("monitor: %w: symbol at position %d has invalid kind %d", trace.ErrNotWellFormed, i, sym.Kind)
	}
	if _, ok := sym.Val.(trace.Int); s.counter && sym.Kind == trace.Res && sym.Op == trace.OpRead && !ok {
		return fmt.Errorf("monitor: history symbol %d: a counter read returns an integer, not %v", i, sym.Val)
	}
	return nil
}

// Session replays histories through pooled monitor machinery: the scheduler
// runtime, the adversaries that replay the history, the monitor logics'
// buffers and checker state, and the result buffers are reused across Run
// calls, so the steady state of a long-lived monitoring loop allocates
// little beyond what the history itself needs. A
// Session is not safe for concurrent use; use one per goroutine.
type Session struct {
	s *imonitor.Session
}

// NewSession returns an empty session; resources are allocated lazily on
// first Run and recycled afterwards.
func NewSession() *Session { return &Session{s: imonitor.NewSession()} }

// Close releases the pooled resources. The session may be reused after
// Close; it just loses its warm state.
func (s *Session) Close() { s.s.Close() }

// ErrTruncated reports that a replay hit Config.MaxSteps before the recorded
// history was fully exhibited: the verdicts cover only a prefix of the
// history. Session.Run returns it wrapped, alongside the partial Result, so
// callers can distinguish an honest partial verdict stream from a complete
// one (match with errors.Is).
var ErrTruncated = errors.New("monitor: replay truncated by MaxSteps before the history drained")

// Run replays cfg.History through the selected monitor and returns the
// verdict stream. The replay is deterministic: the word-cursor adversary
// hands each process its recorded operations in order (Claim 3.1), so the
// same Config yields a byte-identical Result. Result.History, the word the
// verdicts judge, keeps each process's recorded projection but may
// interleave processes differently from cfg.History; see the package doc
// for what a YES does and does not certify. The returned Result is owned by
// the session and overwritten by the next Run; callers that keep it across
// runs must copy what they need.
//
// When the step bound cuts the replay short, Run returns the partial Result
// together with an error wrapping ErrTruncated; Result.Drained reports the
// same condition (false on a cutoff). All other errors return a nil Result.
//
// Run is Stream fed cfg.History, so it checks the history as Stream does,
// event by event: a history that is not a well-formed word over processes
// 0..N-1 (with integer counter reads, for the counter logics) fails with an
// error naming its first bad event.
func (s *Session) Run(cfg Config) (*Result, error) {
	h := cfg.History
	cfg.History = nil
	return s.Stream(cfg, func() (trace.Symbol, bool) {
		if len(h) == 0 {
			return trace.Symbol{}, false
		}
		sym := h[0]
		h = h[1:]
		return sym, true
	}, nil)
}

// Stream replays a history that arrives while the replay runs. next supplies
// the history one event at a time and returns false at its end; it may
// block until its next event exists, and the whole replay waits with it.
// report, when non-nil, receives each verdict as the run reports it: the
// process, the verdict's index in that process's stream, the verdict, and
// the step and exhibited-history length that Result.StepAt and
// Result.HistAt record for it. Stream calls both synchronously, one call at
// a time, and returns only after the last; the caller's goroutine is the one
// that blocks.
//
// The replay pulls events only as the word-cursor adversary needs them, and
// makes the same scheduling choices whenever they arrive, so Stream yields
// the Result Run yields for the same history, and reports that Result's
// verdicts, each process's in index order. A process's verdict stream is
// final once the process has exited, which it does only when the history
// ends: until next returns false, every process may still report.
//
// cfg.History must be empty. Unless the rest of cfg is invalid, Stream
// calls next until it returns false, even after MaxSteps has cut the
// replay, so a truncated Result reports the whole history's length. Stream
// checks each event as it arrives; the first event that fails ends the
// replay's input, no verdict is reported after it, and Stream returns a nil
// Result and an error naming that event — the error Run returns for the
// same history. The Result is owned by the session.
func (s *Session) Stream(cfg Config, next func() (trace.Symbol, bool), report func(proc, index int, v Verdict, step, hist int)) (*Result, error) {
	if len(cfg.History) > 0 {
		return nil, errors.New("monitor: Stream reads its history from next; Config.History must be empty")
	}
	kind, err := cfg.settings()
	if err != nil {
		return nil, err
	}
	src := &source{next: next, n: cfg.N, counter: cfg.counter(), pending: make([]pendingOp, cfg.N)}
	adv := s.s.Cursor(cfg.N, src)
	tau := s.s.Timed(cfg.N, adv, kind)
	var m imonitor.Monitor
	switch cfg.Logic {
	case LogicLin:
		m = imonitor.NewLin(cfg.Object, tau, kind)
	case LogicSC:
		m = imonitor.NewSC(cfg.Object, tau, kind)
	case LogicWEC:
		m = imonitor.NewWEC(kind)
	case LogicSEC:
		m = imonitor.NewSEC(tau, kind)
	case LogicECLedger:
		m = imonitor.NewECLed(kind)
	}
	var onVerdict func(proc, index int, v Verdict, step, hist int)
	if report != nil {
		onVerdict = func(proc, index int, v Verdict, step, hist int) {
			if src.err == nil {
				report(proc, index, v, step, hist)
			}
		}
	}
	res := s.s.Run(imonitor.Config{
		N:       cfg.N,
		Monitor: m,
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		MaxSteps: cfg.MaxSteps,
		Report:   onVerdict,
	})
	src.drain()
	if src.err != nil {
		return nil, src.err
	}
	if !res.Drained {
		maxSteps := cfg.MaxSteps
		if maxSteps <= 0 {
			maxSteps = DefaultMaxSteps
		}
		return res, fmt.Errorf("%w: %d of %d history events exhibited in %d steps (MaxSteps %d)",
			ErrTruncated, len(res.History), src.events, res.Steps, maxSteps)
	}
	return res, nil
}

// Run replays one history through a dedicated one-shot Session. Workloads
// monitoring many histories should hold a Session and reuse it instead.
func Run(cfg Config) (*Result, error) {
	s := NewSession()
	defer s.Close()
	return s.Run(cfg)
}

// errNotWellFormed wraps offline-check input errors.
var errNotWellFormed = errors.New("monitor: history is not well-formed")

// Linearizable reports whether the history is linearizable with respect to
// the object — the offline ground-truth oracle, as opposed to the online
// verdict stream of LogicLin. It asks the same judge as the rest of the
// module: no prefix of the history ending at a response may violate the
// condition. Linearizability is prefix-closed, so this is also the
// whole-history answer.
func Linearizable(obj Object, h trace.Word) (bool, error) {
	return judge(lang.LIN, obj, h)
}

// SeqConsistent reports whether the history is sequentially consistent with
// respect to the object — the offline ground-truth oracle, as opposed to the
// online verdict stream of LogicSC. Like Linearizable it judges every prefix
// of the history that ends at a response, as the definition does: a history
// whose prefix violates sequential consistency is rejected even when a later
// operation would repair the whole history.
func SeqConsistent(obj Object, h trace.Word) (bool, error) {
	return judge(lang.SC, obj, h)
}

// judge runs the module's one test of a finite history for cond.
func judge(cond lang.Cond, obj Object, h trace.Word) (bool, error) {
	if err := trace.WellFormed(h); err != nil {
		return false, fmt.Errorf("%w: %v", errNotWellFormed, err)
	}
	return lang.Judge{Cond: cond, Object: obj}.Violation(h, nil) == nil, nil
}

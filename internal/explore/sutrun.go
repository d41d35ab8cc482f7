package explore

// The object-execution scenario family (FamObj): where the language family
// replays scripted adversary words, this family runs the real concurrent
// implementations of package sut — queues, stacks, registers, counters,
// ledgers, each in a correct and several seeded-bug variants — under a
// random workload, a random schedule and a random crash schedule, through
// the full deployment stack: the timed adversary Aτ wraps the service and
// the Figure 8 predictive monitor V_O watches it, exactly as in the paper's
// deployment story. The exhibited history is then judged offline by the
// matching package check oracle, differentially against the brute-force
// reference checker, and against the monitor's own verdict stream.
//
// Oracle outcomes split by the implementation's ground truth, mirroring the
// language family's source labels: a violated property the implementation
// guarantees is a Divergence (a bug in sut, check, monitor or sched); a
// violated property a seeded-bug implementation does not guarantee is an
// OracleFailure — the explorer found the planted bug, the object family's
// figure of merit.

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// Oracle names reported in OracleFailures (bug findings on seeded-bug
// implementations) and in CheckOracle divergence details.
const (
	// OracleLin: the history is not linearizable for the sequential object.
	OracleLin = "lin"
	// OracleSC: the history is not sequentially consistent (register, queue,
	// stack).
	OracleSC = "sc"
	// OracleSECSafety: a strongly-eventual counter safety clause failed.
	OracleSECSafety = "sec-safety"
	// OracleECSafety: the eventually consistent ledger's ordering clause
	// failed.
	OracleECSafety = "ec-safety"
)

// implDef is one registered implementation of an object, with its ground
// truth: which oracle properties every history it exhibits is guaranteed to
// satisfy. Guaranteed properties are divergence-checked; non-guaranteed ones
// are the planted bugs the explorer hunts.
type implDef struct {
	// name is the spec slug (drv2:obj/<object>/<name>).
	name string
	// lin guarantees every exhibited history is linearizable.
	lin bool
	// safe guarantees the object's secondary safety oracle (SC for register,
	// queue and stack; SEC safety for counters; EC ordering for ledgers).
	safe bool
	// make builds a fresh instance for n processes.
	make func(n int) sut.Impl
}

// objDef is one registered object: its sequential specification, its
// secondary safety oracle, and its implementations (first one correct).
type objDef struct {
	name string
	obj  trace.Object
	// safetyName labels the secondary oracle in findings and signatures.
	safetyName string
	// safety returns "" when the history satisfies the secondary oracle,
	// otherwise the violation. ops is trace.Operations(w), precomputed.
	safety func(obj trace.Object, w trace.Word, ops []trace.Operation) string
	impls  []implDef
}

// scViolation is the secondary oracle of the strong objects (register,
// queue, stack): plain sequential consistency, the strongest property an
// order-free observer can refute.
func scViolation(obj trace.Object, _ trace.Word, ops []trace.Operation) string {
	if !check.SeqConsistentOps(obj, ops) {
		return "history is not sequentially consistent"
	}
	return ""
}

func secViolation(_ trace.Object, w trace.Word, _ []trace.Operation) string {
	if v := check.SECSafety(w); v != nil {
		return v.String()
	}
	return ""
}

func ecViolation(_ trace.Object, w trace.Word, _ []trace.Operation) string {
	if v := check.ECLedgerSafety(w); v != nil {
		return v.String()
	}
	return ""
}

// objRegistry lists the object-execution scenarios, in deterministic order.
// The ground-truth flags restate what package sut's tests pin: e.g. the
// split register is never linearizable under cross-process reads yet always
// sequentially consistent, the collect counter forfeits linearizability but
// keeps SEC safety, the stuck counter can under-read its own increments (a
// WEC clause-1 violation), and the lossy ledger drops records while keeping
// the gets it does answer prefix-compatible.
var objRegistry = []objDef{
	{
		name: "register", obj: trace.Register(), safetyName: OracleSC, safety: scViolation,
		impls: []implDef{
			{name: "atomic", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewAtomicRegister() }},
			{name: "stale", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewStaleRegister(n, 3) }},
			{name: "split", lin: false, safe: true, make: func(n int) sut.Impl { return sut.NewSplitRegister(n) }},
		},
	},
	{
		name: "counter", obj: trace.Counter(), safetyName: OracleSECSafety, safety: secViolation,
		impls: []implDef{
			{name: "snapshot", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAtomic) }},
			{name: "aadgms", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAADGMS) }},
			{name: "collect", lin: false, safe: true, make: func(n int) sut.Impl { return sut.NewCollectCounter(n) }},
			{name: "inflated", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewInflatedCounter(n, 2) }},
			{name: "stuck", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewStuckCounter(n) }},
		},
	},
	{
		name: "queue", obj: trace.Queue(), safetyName: OracleSC, safety: scViolation,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewLockQueue() }},
			{name: "lifo", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewLIFOQueue() }},
		},
	},
	{
		name: "stack", obj: trace.Stack(), safetyName: OracleSC, safety: scViolation,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewLockStack() }},
			{name: "fifo", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewFIFOStack() }},
		},
	},
	{
		name: "ledger", obj: trace.Ledger(), safetyName: OracleECSafety, safety: ecViolation,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: func(n int) sut.Impl { return sut.NewLockLedger() }},
			{name: "snapshot", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewSnapshotLedger(n) }},
			{name: "forked", lin: false, safe: false, make: func(n int) sut.Impl { return sut.NewForkedLedger(n) }},
			{name: "lossy", lin: false, safe: true, make: func(n int) sut.Impl { return sut.NewLossyLedger(2) }},
		},
	},
}

// Objects returns the registered object names, in registry order.
func Objects() []string {
	names := make([]string, 0, len(objRegistry))
	for _, od := range objRegistry {
		names = append(names, od.name)
	}
	return names
}

// ImplsOf returns the implementation slugs of the object, correct variant
// first, or nil for an unknown object.
func ImplsOf(object string) []string {
	for _, od := range objRegistry {
		if od.name != object {
			continue
		}
		names := make([]string, 0, len(od.impls))
		for _, id := range od.impls {
			names = append(names, id.name)
		}
		return names
	}
	return nil
}

// implByName resolves an object/impl slug pair.
func implByName(object, impl string) (objDef, implDef, error) {
	for _, od := range objRegistry {
		if od.name != object {
			continue
		}
		for _, id := range od.impls {
			if id.name == impl {
				return od, id, nil
			}
		}
		return objDef{}, implDef{}, fmt.Errorf("explore: object %q has no implementation %q", object, impl)
	}
	return objDef{}, implDef{}, fmt.Errorf("explore: unknown object %q", object)
}

// wlSalt derives the workload stream from the spec seed, independent of the
// policy stream (0x5eed) and the guidance stream (0x9ded).
const wlSalt = 0x3ead

// executeObj runs one object-execution scenario: the implementation under a
// seeded random workload, wrapped in Aτ, monitored by V_O. The substrate
// comes from the runner's scratch: the implementation instance (one live
// copy per object/impl pair, reset per scenario), the workload, the service
// and Aτ are re-armed through their Reset contracts, so a reused scratch
// runs exactly as a new one.
func (r Runner) executeObj(s Spec) (*Outcome, error) {
	od, id, err := implByName(s.Object, s.Impl)
	if err != nil {
		return nil, err
	}
	sc := r.scratch
	impl := sc.objImpl(id, s)
	sc.wl.Reset(od.obj, s.N, s.OpsPerProc, s.MutBias, mix(s.Seed, wlSalt))
	sc.svc.Reset(s.N, impl, &sc.wl)
	tau := sc.timed(s.N, &sc.svc)
	out, res := r.run(s, monitor.NewLin(od.obj, tau, adversary.ArrayAtomic), func(*sched.Runtime) (adversary.Service, []int) {
		return tau, nil
	})
	out.Label = id.lin && id.safe
	r.runHistoryChecks(out, od.obj, od.safetyName, od.safety, id.lin, id.safe, false, res, tau)
	out.Signature = objSignature(out, res)
	return out, nil
}

// bruteOpsCap bounds the brute-force differential: the reference checker
// enumerates pending subsets × permutations, so only small histories can
// afford it. Histories above the cap skip the check.
const bruteOpsCap = 7

// runHistoryChecks is the check battery shared by the object and
// message-passing families: the exhibited history against the class oracles
// (split into divergences and bug findings by the implementation's ground
// truth linOK/safeOK), the brute-force differential on small histories, and
// the monitor's verdict stream against the offline oracle. lossy marks runs
// whose network schedule dropped messages; like a crash, a dropped message
// can strand the violating operation pending, so it gates the completeness
// half of the monitor check.
func (r Runner) runHistoryChecks(out *Outcome, obj trace.Object, safetyName string, safety func(trace.Object, trace.Word, []trace.Operation) string, linOK, safeOK, lossy bool, res *monitor.Result, tau *adversary.Timed) {
	s := out.Spec
	crashed := len(s.Crashes) > 0
	mark := r.stages.start()

	out.ran(CheckWellFormed)
	if err := trace.WellFormed(res.History); err != nil {
		out.diverge(CheckWellFormed, "%v", err)
	}

	if crashed {
		out.ran(CheckCrashQuiet)
		checkCrashQuiet(out, res)
	}

	ops := trace.Operations(res.History)
	// The offline oracles run on the runner's incremental checkers (see
	// Runner.checker), the sequential-consistency oracle included: it decides
	// exactly scViolation's condition.
	lin := r.checker(obj, true, s.N).CheckWord(res.History)
	var violation string
	if safetyName == OracleSC {
		if !r.checker(obj, false, s.N).CheckWord(res.History) {
			violation = "history is not sequentially consistent"
		}
	} else {
		violation = safety(obj, res.History, ops)
	}

	out.ran(CheckOracle)
	if !lin {
		if linOK {
			out.diverge(CheckOracle,
				"correct implementation %s/%s exhibited a non-linearizable history", s.Object, s.Impl)
		} else {
			out.bug(OracleLin, "history of %s/%s is not linearizable", s.Object, s.Impl)
		}
	}
	if violation != "" {
		if safeOK {
			out.diverge(CheckOracle,
				"%s/%s guarantees %s but violated it: %s", s.Object, s.Impl, safetyName, violation)
		} else {
			out.bug(safetyName, "%s", violation)
		}
	}

	// The memoized witness search against the exhaustive reference, on the
	// histories real implementations (not synthetic words) produce, including
	// pending-at-crash operations.
	if len(ops) <= bruteOpsCap {
		out.ran(CheckBrute)
		if got := check.BruteLinearizable(obj, res.History); got != lin {
			out.diverge(CheckBrute,
				"witness search says linearizable=%v, brute force says %v", lin, got)
		}
		if safetyName == OracleSC {
			fast := violation == ""
			if got := check.BruteSeqConsistent(obj, res.History); got != fast {
				out.diverge(CheckBrute,
					"witness search says sequentially-consistent=%v, brute force says %v", fast, got)
			}
		}
	} else {
		out.skipped(CheckBrute)
	}
	r.stages.stop(s.Fam(), stageCheck, mark)
	mark = r.stages.start()

	// The monitor axis: V_O's verdict stream against the offline oracle,
	// under the predictive escape of Definition 6.1 — the monitor answers
	// for the sketch x~(E), not for x(E), in both directions. Soundness: on
	// a linearizable history a NO is only justified when the sketch itself
	// is non-linearizable (operations shrink in the sketch, so it can gain
	// precedence pairs the word never had and legitimately fall outside
	// LIN_O — the mirror image of the Out-side escape the language family
	// pins in its corpus). Completeness: a violation both the word and the
	// sketch exhibit must draw a NO; it only applies when the run drained
	// crash-free and loss-free — a step-bound cutoff, a crash or a dropped
	// message can separate the violating response from the verdict that
	// would have judged it.
	out.ran(CheckMonitorLin)
	switch {
	case lin && res.TotalNO() > 0:
		sk, err := res.Sketch(s.N, tau.InvAt)
		if err == nil && r.checker(obj, true, s.N).CheckWord(sk) {
			out.diverge(CheckMonitorLin,
				"history and sketch are both linearizable but %s reported %d NO verdict(s)", out.Monitor, res.TotalNO())
		}
	case !lin && !crashed && !lossy && res.Drained && res.TotalNO() == 0:
		sk, err := res.Sketch(s.N, tau.InvAt)
		if err == nil && !r.checker(obj, true, s.N).CheckWord(sk) {
			out.diverge(CheckMonitorLin,
				"history and sketch are both non-linearizable but no process ever reported NO")
		}
	}
	r.stages.stop(s.Fam(), stageMonitor, mark)
}

// bug records an oracle failure: a property violation the implementation
// does not guarantee — the explorer exposing a planted bug.
func (o *Outcome) bug(oracle, format string, args ...any) {
	o.OracleFailures = append(o.OracleFailures, Divergence{
		Check:  oracle,
		Detail: fmt.Sprintf(format, args...),
	})
}

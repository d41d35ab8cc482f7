package explore

// The object-execution scenario family (FamObj): where the language family
// replays scripted adversary words, this family runs the real concurrent
// implementations of package sut — queues, stacks, registers, counters,
// ledgers, each in a correct and several seeded-bug variants — under a
// random workload, a random schedule and a random crash schedule, through
// the full deployment stack: the timed adversary Aτ wraps the service and
// the Figure 8 predictive monitor V_O watches it, exactly as in the paper's
// deployment story. The exhibited history is then judged offline by the
// object's lang judges, differentially against the brute-force reference
// checker, and against the monitor's own verdict stream.
//
// Oracle outcomes split by the implementation's ground truth, mirroring the
// language family's source labels: a violated property the implementation
// guarantees is a Divergence (a bug in sut, check, monitor or sched); a
// violated property a seeded-bug implementation does not guarantee is an
// OracleFailure — the explorer found the planted bug, the object family's
// figure of merit.
//
// The message-passing family (FamMsg, see msgrun.go) runs down this same
// path: its registry holds emulated objects, and executeObj arms a network
// for them.

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/core"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/msgnet"
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
	// name is the spec slug (drv2:obj/<object>/<name>, drv3:msg/<object>/<name>).
	name string
	// lin guarantees every exhibited history is linearizable.
	lin bool
	// safe guarantees the object's secondary safety oracle (SC for register,
	// queue, stack and consensus; SEC safety for counters; EC ordering for
	// ledgers).
	safe bool
	// make builds a fresh instance for n processes. A message-passing
	// emulation binds to the network nt and also returns the closure that
	// re-derives its replica servers from the live emulation: the run scratch
	// calls it again after every Reset, because a counter's cell set (hence
	// its server list) can grow when n does. A shared-memory implementation
	// ignores nt and returns nil.
	make func(n int, nt *msgnet.Net) (sut.Impl, func() []abd.Server)
}

// shared adapts a shared-memory constructor to implDef.make.
func shared(newImpl func(n int) sut.Impl) func(int, *msgnet.Net) (sut.Impl, func() []abd.Server) {
	return func(n int, _ *msgnet.Net) (sut.Impl, func() []abd.Server) { return newImpl(n), nil }
}

// objDef is one registered object: its sequential specification, named by
// obj.Name() in specs, its secondary safety oracle, and its implementations
// (first one correct).
type objDef struct {
	obj trace.Object
	// safety is the secondary oracle's condition, judged over obj: SC for
	// the strong objects — the strongest property an order-free observer can
	// refute — SEC safety for counters, EC clause (1) for ledgers.
	safety lang.Cond
	impls  []implDef
}

// safetyOracle labels each secondary oracle condition in findings and
// signatures.
var safetyOracle = map[lang.Cond]string{lang.SC: OracleSC, lang.SEC: OracleSECSafety, lang.EC: OracleECSafety}

// objRegistry lists the object-execution scenarios, in deterministic order.
// The ground-truth flags restate what package sut's tests pin: e.g. the
// split register is never linearizable under cross-process reads yet always
// sequentially consistent, the collect counter forfeits linearizability but
// keeps SEC safety, the stuck counter can under-read its own increments (a
// WEC clause-1 violation), and the lossy ledger drops records while keeping
// the gets it does answer prefix-compatible.
var objRegistry = []objDef{
	{
		obj: trace.Register(), safety: lang.SC,
		impls: []implDef{
			{name: "atomic", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewAtomicRegister() })},
			{name: "stale", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewStaleRegister(n, 3) })},
			{name: "split", lin: false, safe: true, make: shared(func(n int) sut.Impl { return sut.NewSplitRegister(n) })},
		},
	},
	{
		obj: trace.Counter(), safety: lang.SEC,
		impls: []implDef{
			{name: "snapshot", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAtomic) })},
			{name: "aadgms", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewSnapshotCounter(n, sut.CounterAADGMS) })},
			{name: "collect", lin: false, safe: true, make: shared(func(n int) sut.Impl { return sut.NewCollectCounter(n) })},
			{name: "inflated", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewInflatedCounter(n, 2) })},
			{name: "stuck", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewStuckCounter(n) })},
		},
	},
	{
		obj: trace.Queue(), safety: lang.SC,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewLockQueue() })},
			{name: "lifo", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewLIFOQueue() })},
		},
	},
	{
		obj: trace.Stack(), safety: lang.SC,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewLockStack() })},
			{name: "fifo", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewFIFOStack() })},
		},
	},
	{
		obj: trace.Ledger(), safety: lang.EC,
		impls: []implDef{
			{name: "lock", lin: true, safe: true, make: shared(func(n int) sut.Impl { return sut.NewLockLedger() })},
			{name: "snapshot", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewSnapshotLedger(n) })},
			{name: "forked", lin: false, safe: false, make: shared(func(n int) sut.Impl { return sut.NewForkedLedger(n) })},
			{name: "lossy", lin: false, safe: true, make: shared(func(n int) sut.Impl { return sut.NewLossyLedger(2) })},
		},
	},
}

// registry returns the family's object table: msgRegistry for FamMsg,
// objRegistry otherwise.
func registry(fam string) []objDef {
	if fam == FamMsg {
		return msgRegistry
	}
	return objRegistry
}

// Objects returns the object names registered in the family (FamObj or
// FamMsg), in registry order.
func Objects(fam string) []string {
	reg := registry(fam)
	names := make([]string, 0, len(reg))
	for _, od := range reg {
		names = append(names, od.obj.Name())
	}
	return names
}

// ImplsOf returns the implementation slugs the family registers for the
// object, correct variant first, or nil for an object the family lacks.
func ImplsOf(fam, object string) []string {
	for _, od := range registry(fam) {
		if od.obj.Name() != object {
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

// implByName resolves an object/impl slug pair in the family's registry.
func implByName(fam, object, impl string) (objDef, implDef, error) {
	noun := "object"
	if fam == FamMsg {
		noun = "emulated object"
	}
	for _, od := range registry(fam) {
		if od.obj.Name() != object {
			continue
		}
		for _, id := range od.impls {
			if id.name == impl {
				return od, id, nil
			}
		}
		return objDef{}, implDef{}, fmt.Errorf("explore: %s %q has no implementation %q", noun, object, impl)
	}
	return objDef{}, implDef{}, fmt.Errorf("explore: unknown %s %q", noun, object)
}

// wlSalt derives the workload stream from the spec seed, independent of the
// policy stream (0x5eed).
const wlSalt = 0x3ead

// executeObj runs one object or message-passing scenario: the implementation
// under a seeded random workload, wrapped in Aτ, monitored by V_O. The one
// message-passing step arms the network: it re-arms under the spec's
// schedule, couples to the service so crashes reach it, and registers its
// delivery actor and the emulation's replica servers as aux actors. The
// substrate comes from the runner's scratch: the implementation instance
// (one live copy per family/object/impl, reset per scenario), the workload,
// the service, Aτ and the network are re-armed through their Reset
// contracts, so a reused scratch runs exactly as a new one.
func (r Runner) executeObj(s Spec) (*Outcome, error) {
	od, id, err := implByName(s.Fam(), s.Object, s.Impl)
	if err != nil {
		return nil, err
	}
	sc := r.scratch
	// Arm the network first so a new emulation binds the re-armed net.
	nt, err := sc.network(s)
	if err != nil {
		return nil, err
	}
	impl, servers := sc.impl(id, s)
	sc.wl.Reset(od.obj, s.N, s.OpsPerProc, s.MutBias, mix(s.Seed, wlSalt))
	sc.svc.Reset(s.N, impl, &sc.wl)
	var inner adversary.Service = &sc.svc
	if nt != nil {
		sc.msgSvc = msgService{Service: &sc.svc, net: nt}
		inner = &sc.msgSvc
	}
	tau := r.Session.Timed(s.N, inner, adversary.ArrayAtomic)
	n := s.N // the closure captures the count, not the whole spec
	out, res := r.run(s, monitor.NewLin(od.obj, tau, adversary.ArrayAtomic), func(rt *sched.Runtime) (adversary.Service, []int) {
		if nt == nil {
			return tau, nil
		}
		// The delivery actor leads the aux list, so a biased policy's
		// cursor lands on it: biased schedules are delivery-eager, the
		// network-side counterpart of the language family's cursor bias.
		aux := []int{nt.Register(rt)}
		return tau, append(aux, abd.Servers(rt, n, servers...)...)
	})
	out.Label = id.lin && id.safe
	r.runHistoryChecks(out, od, id, res, tau)
	return out, nil
}

// bruteOpsCap bounds the brute-force differential: the reference checker
// enumerates pending subsets × permutations, so only small histories can
// afford it. Histories above the cap skip the check.
const bruteOpsCap = 7

// runHistoryChecks is the check battery of the object scenarios, shared-memory
// and message-passing alike: the exhibited history against the class oracles
// (split into divergences and bug findings by the implementation's ground
// truth), the brute-force differential on small histories, and the monitor's
// verdict stream against the offline oracle. A classOnly runner stops after
// the class oracles.
func (r Runner) runHistoryChecks(out *Outcome, od objDef, id implDef, res *monitor.Result, tau *adversary.Timed) {
	s := out.Spec
	obj := od.obj
	mark := r.stages.start()

	out.ran(CheckWellFormed)
	if err := trace.WellFormed(res.History); err != nil {
		out.diverge(CheckWellFormed, "%v", err)
	}

	if len(s.Crashes) > 0 {
		out.ran(CheckCrashQuiet)
		checkCrashQuiet(out, res)
	}

	// The offline oracles borrow their checkers from the session's pool. An
	// SC oracle reads both verdicts off one checker's pass.
	pool := r.Session.CheckPool()
	linV, v := lang.Judge{Cond: od.safety, Object: obj}.Violations(res.History, pool)
	lin := linV == nil
	var violation string
	if v != nil {
		violation = v.Detail
		if od.safety == lang.SC {
			violation = "history is not sequentially consistent"
		}
	}

	out.ran(CheckOracle)
	if !lin {
		if id.lin {
			out.diverge(CheckOracle,
				"correct implementation %s/%s exhibited a non-linearizable history", s.Object, s.Impl)
		} else {
			out.bug(OracleLin, "history of %s/%s is not linearizable", s.Object, s.Impl)
		}
	}
	if violation != "" {
		if id.safe {
			out.diverge(CheckOracle,
				"%s/%s guarantees %s but violated it: %s", s.Object, s.Impl, safetyOracle[od.safety], violation)
		} else {
			out.bug(safetyOracle[od.safety], "%s", violation)
		}
	}

	if r.classOnly {
		r.stages.stop(s.Fam(), stageCheck, mark)
		return
	}

	// The memoized witness search against the exhaustive reference, on the
	// histories real implementations (not synthetic words) produce, including
	// pending-at-crash operations.
	if invocations(res.History) <= bruteOpsCap {
		out.ran(CheckBrute)
		if got := check.BruteLinearizable(obj, res.History); got != lin {
			out.diverge(CheckBrute,
				"witness search says linearizable=%v, brute force says %v", lin, got)
		}
		if od.safety == lang.SC {
			fast := violation == ""
			if got := bruteSeqConsistentPrefixes(obj, res.History); got != fast {
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
	// judged by core.Eval under PSD, the escape of Definition 6.1 — the
	// monitor answers for the sketch x~(E), not for x(E). A NO on a
	// linearizable history needs a non-linearizable sketch (operations shrink
	// in the sketch, so it can gain precedence pairs the word never had). A
	// violating history needs a NO unless the covered sketch, built from the
	// responses some verdict judged, is linearizable: a crash, a dropped
	// message or a step cutoff can strand the violating response before any
	// verdict saw it.
	out.ran(CheckMonitorLin)
	r.judge(out, CheckMonitorLin, "", core.Eval{
		Class: core.PSD, Judge: lang.Judge{Cond: lang.LIN, Object: obj}, Sketch: core.SketchOf(res, tau.InvAt),
	}, res, lin)
	r.stages.stop(s.Fam(), stageMonitor, mark)
}

// invocations counts w's invocations: its operations, pending ones included,
// without building them.
func invocations(w trace.Word) int {
	k := 0
	for _, s := range w {
		if s.Kind == trace.Inv {
			k++
		}
	}
	return k
}

// bruteSeqConsistentPrefixes is the exhaustive reference for the SC judge:
// BruteSeqConsistent on every prefix of w that ends at a response, and on w.
func bruteSeqConsistentPrefixes(obj trace.Object, w trace.Word) bool {
	for k := 1; k <= len(w); k++ {
		if (k == len(w) || w[k-1].Kind == trace.Res) && !check.BruteSeqConsistent(obj, w[:k]) {
			return false
		}
	}
	return true
}

// bug records an oracle failure: a property violation the implementation
// does not guarantee — the explorer exposing a planted bug.
func (o *Outcome) bug(oracle, format string, args ...any) {
	o.OracleFailures = append(o.OracleFailures, Divergence{
		Check:  oracle,
		Detail: fmt.Sprintf(format, args...),
	})
}

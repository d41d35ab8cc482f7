package explore

// Per-run transient state. A Runner executes every scenario on a scratch
// that holds one instance of each piece of the execution substrate —
// workload, service, scheduling-policy source, crash schedule, network,
// implementation instances, digest buffer — and re-arms it per scenario
// through the Reset contracts (sut.Impl.Reset, sut.Service.Reset,
// sut.RandomWorkload.Reset, msgnet.Schedule.Reset, a reseeded lazyrand
// source): the execution-side counterpart of what monitor.Session is on the
// runtime side, where the adversary cursor and the timed adversary are
// pooled (Session.Cursor, Session.Timed). A runner without scratch starts a
// new one for each Execute call; a pooled runner (see Runner.Pooled) keeps
// one per worker.
// Outcomes are byte-identical either way — the Reset contracts guarantee a
// reused instance exhibits exactly a new one's behaviour — which the
// reuse-vs-first-use differential tests pin per registered implementation
// and per language source.

import (
	"math/rand"

	"github.com/drv-go/drv/internal/abd"
	"github.com/drv-go/drv/internal/lazyrand"
	"github.com/drv-go/drv/internal/msgnet"
	"github.com/drv-go/drv/internal/sut"
)

// implKey identifies one registered implementation: its family's registry
// and its object/impl slug pair.
type implKey struct{ fam, object, impl string }

// implEntry caches one live implementation: the instance plus, for a
// message-passing emulation bound to the scratch's pooled network, the
// closure re-deriving its replica servers (a counter's cell set can grow when
// Reset raises n, so the server list cannot be cached once and for all).
type implEntry struct {
	impl    sut.Impl
	servers func() []abd.Server
}

// runScratch holds a Runner's reusable execution substrate. It is owned by
// exactly one worker and never shared, so no synchronization is needed.
type runScratch struct {
	// impls caches one live instance per family/object/impl, reset per
	// scenario instead of rebuilt; emulations are bound to the pooled
	// network nt.
	impls map[implKey]implEntry
	// wl and svc are the per-scenario pipeline stages the object families
	// share; msgSvc couples svc to the pooled network for the msg family.
	wl     sut.RandomWorkload
	svc    sut.Service
	msgSvc msgService
	// rng draws the scheduling policy's choices; each scenario reseeds it.
	rng *rand.Rand
	// crash is the reusable crash-schedule map.
	crash map[int][]int
	// nt is the pooled network; allocated on the first msg scenario and armed
	// by Schedule.Reset for every one. The cached emulations hold this pointer.
	nt *msgnet.Net
	// digestBuf holds the text the outcome digest hashes.
	digestBuf []byte
}

func newRunScratch() *runScratch {
	return &runScratch{
		impls: map[implKey]implEntry{},
		crash: map[int][]int{},
		rng:   rand.New(lazyrand.NewSource(0)),
	}
}

// Pooled returns a copy of the runner that keeps one execution substrate
// across the scenarios it runs — object and emulation instances (reset per
// scenario through the sut.Impl Reset contract), workload, service,
// policy source, crash map, network and digest buffer —
// instead of starting one per Execute call. Outcomes are byte-identical
// either way; the copy must not be used concurrently (explore gives each
// worker its own).
func (r Runner) Pooled() Runner {
	r.scratch = newRunScratch()
	return r
}

// crashMap builds the spec's crash schedule in the scratch's reusable map.
func (r Runner) crashMap(s Spec) map[int][]int {
	crash := r.scratch.crash
	clear(crash)
	for _, c := range s.Crashes {
		crash[c.Step] = append(crash[c.Step], c.Proc)
	}
	return crash
}

// impl returns the cached instance for the scenario's implementation, reset
// for s.N processes, creating it on first use, and its replica servers (nil
// for shared memory). For a message-passing scenario, arm the network first
// so a new emulation binds the re-armed net.
func (sc *runScratch) impl(id implDef, s Spec) (sut.Impl, []abd.Server) {
	key := implKey{s.Fam(), s.Object, s.Impl}
	e, ok := sc.impls[key]
	if ok {
		e.impl.Reset(s.N)
	} else {
		e.impl, e.servers = id.make(s.N, sc.nt)
		sc.impls[key] = e
	}
	if e.servers == nil {
		return e.impl, nil
	}
	return e.impl, e.servers()
}

// network re-arms the pooled network for a message-passing scenario's
// schedule, creating it on the first one; other scenarios run without a
// network (nil).
func (sc *runScratch) network(s Spec) (*msgnet.Net, error) {
	if s.Fam() != FamMsg {
		return nil, nil
	}
	if sc.nt == nil {
		sc.nt = new(msgnet.Net)
	}
	if err := msgSchedule(s).Reset(sc.nt, s.N); err != nil {
		return nil, err
	}
	return sc.nt, nil
}

package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/msgnet"
)

// GenConfig constrains random scenario generation.
type GenConfig struct {
	// Families restricts scenarios to these scenario families (FamLang,
	// FamObj, FamMsg); empty means the language family alone, which keeps
	// every pre-drv2 sweep byte-identical.
	Families []string
	// Langs restricts language scenarios to these language names; empty
	// means all seven Table 1 languages.
	Langs []string
	// Objects restricts object and message-passing scenarios to these object
	// names; empty means every object registered in the drawn family.
	Objects []string
	// Impls restricts object and message-passing scenarios to these
	// implementation slugs; empty means every implementation of the drawn
	// object.
	Impls []string
	// MaxCrashes bounds the crash count per scenario (further capped at
	// n−1: the paper's fault model keeps at least one process alive).
	MaxCrashes int
	// MaxSteps caps the scheduler step bound a scenario may draw (0 = the
	// per-family defaults only).
	MaxSteps int
	// NetOrders restricts message-passing scenarios to these delivery-order
	// kinds (msgnet.OrderFIFO etc.); empty means all four.
	NetOrders []string
}

// families resolves the family set, defaulting to the language family.
func (g GenConfig) families() []string {
	if len(g.Families) == 0 {
		return []string{FamLang}
	}
	return g.Families
}

// validate checks the config against the known language, family and object
// sets. A filter may name each entry once: a repeated one would weigh its
// draws, and a repeated family would spend an extra draw on picking it.
func (g GenConfig) validate() error {
	filters := [][]string{g.Families, g.Langs, g.Objects, g.Impls, g.NetOrders}
	for k, noun := range []string{"scenario family", "language", "object", "implementation", "network order"} {
		for i, name := range filters[k] {
			if slices.Contains(filters[k][:i], name) {
				return fmt.Errorf("explore: %s %q listed twice", noun, name)
			}
		}
	}
	for _, fam := range g.Families {
		if fam != FamLang && fam != FamObj && fam != FamMsg {
			return fmt.Errorf("explore: unknown scenario family %q", fam)
		}
	}
	for _, name := range g.Langs {
		if _, err := lang.ByName(name); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	// Object and impl filters resolve against the object registry, plus the
	// message registry when the msg family is selected.
	registries := []string{FamObj}
	if slices.Contains(g.families(), FamMsg) {
		registries = append(registries, FamMsg)
	}
	for _, name := range g.Objects {
		known := false
		for _, fam := range registries {
			known = known || ImplsOf(fam, name) != nil
		}
		if !known {
			return fmt.Errorf("explore: unknown object %q", name)
		}
	}
	for _, impl := range g.Impls {
		found := false
		for _, fam := range registries {
			for _, object := range g.objects(fam) {
				found = found || slices.Contains(ImplsOf(fam, object), impl)
			}
		}
		if !found {
			return fmt.Errorf("explore: no selected object has an implementation %q", impl)
		}
	}
	// A selected family must have something to draw: object filters naming
	// only the other family's objects would otherwise panic deep in newSpecSeeded.
	for _, fam := range g.families() {
		if fam != FamLang && len(g.drawableObjects(fam)) == 0 {
			return fmt.Errorf("explore: no selected object is drawable in the %s family", fam)
		}
	}
	for _, order := range g.NetOrders {
		if err := (msgnet.Schedule{Order: order}).Validate(); err != nil {
			return err
		}
	}
	if g.MaxCrashes < 0 {
		return fmt.Errorf("explore: negative MaxCrashes %d", g.MaxCrashes)
	}
	if g.MaxSteps < 0 {
		return fmt.Errorf("explore: negative MaxSteps %d", g.MaxSteps)
	}
	return nil
}

// objects resolves the family's object set, defaulting to its whole
// registry.
func (g GenConfig) objects(fam string) []string {
	if len(g.Objects) > 0 {
		return g.Objects
	}
	return Objects(fam)
}

// implsFor returns the object's implementation slugs in the family's
// registry allowed by the config's Impls filter (all of them when the filter
// is empty), in registry order.
func (g GenConfig) implsFor(fam, object string) []string {
	all := ImplsOf(fam, object)
	if len(g.Impls) == 0 {
		return all
	}
	var keep []string
	for _, name := range all {
		if slices.Contains(g.Impls, name) {
			keep = append(keep, name)
		}
	}
	return keep
}

// drawableObjects returns the family's objects that still have at least one
// allowed implementation under the filters.
func (g GenConfig) drawableObjects(fam string) []string {
	var keep []string
	for _, object := range g.objects(fam) {
		if len(g.implsFor(fam, object)) > 0 {
			keep = append(keep, object)
		}
	}
	return keep
}

// netOrders resolves the delivery-order set, defaulting to all four kinds in
// msgnet's declaration order.
func (g GenConfig) netOrders() []string {
	if len(g.NetOrders) == 0 {
		return []string{msgnet.OrderFIFO, msgnet.OrderLIFO, msgnet.OrderRandom, msgnet.OrderStarve}
	}
	return g.NetOrders
}

// stepRange returns the scheduler-step bounds scenarios of a language with
// the condition draw from. The floors keep the finite-run proxies meaningful
// (a weak decider needs to get past the sources' transient phases before its
// verdict tail is judged); the ceilings keep 500-scenario sweeps interactive
// — the predictive monitors re-check a growing history every round. The incremental checkers
// make most rounds cheap, but a round that refutes the cached witness falls
// back to the residual search, worst-case exponential, and the
// sequential-consistency search, with no real-time order to prune it, gets
// the shortest runs.
func stepRange(cond lang.Cond) (lo, hi int) {
	switch cond {
	case lang.WEC:
		return 2500, 6000
	case lang.SEC:
		return 2000, 3600
	case lang.EC:
		return 500, 1500
	case lang.LIN:
		return 400, 1200
	default: // SC: the least-pruned residual search, shortest runs
		return 300, 700
	}
}

// newSpecSeeded derives scenario index of the master seed under the config,
// drawing from a caller-owned rng already seeded with mix(master, index). The
// same (master, index, cfg) triple always yields the same spec, and distinct
// indices draw from independent random streams, so a sweep's scenario list
// does not depend on worker count or on how many scenarios run. Explore's
// generator loop reseeds one reusable rng per index instead of building a
// fresh source each time — a reseeded lazyrand source draws exactly a fresh
// one's stream, so the draws are identical.
//
// With the default (language-only) family set the draw sequence is exactly
// the pre-drv2 one, so existing sweeps replay byte-for-byte; a multi-family
// config spends one extra draw picking the family first.
func newSpecSeeded(rng *rand.Rand, cfg GenConfig) Spec {
	fams := cfg.families()
	fam := fams[0]
	if len(fams) > 1 {
		fam = fams[rng.Intn(len(fams))]
	}
	if fam != FamLang {
		return newObjSpec(rng, cfg, fam)
	}
	var l lang.Lang
	if names := cfg.Langs; len(names) > 0 {
		l, _ = lang.ByName(names[rng.Intn(len(names))]) // cfg was validated
	} else {
		all := lang.All()
		l = all[rng.Intn(len(all))]
	}

	s := Spec{
		Lang: l.Name,
		N:    2 + rng.Intn(3), // 2..4 processes
		Seed: rng.Int63(),
	}
	sources := l.Sources(s.N, s.Seed)
	s.Source = sources[rng.Intn(len(sources))].Name

	switch rng.Intn(4) {
	case 0:
		s.Policy = PolRandom
	case 1:
		s.Policy = PolBursty
	case 2:
		s.Policy = PolCursor
	default:
		s.Policy = PolBiased
		// Fresh specs draw from a coarse bias grid (the encoding itself is
		// exact for any float64 since the FormatFloat move); the grid keeps
		// sweeps reproducible across explorer versions.
		s.Bias = float64(30+5*rng.Intn(11)) / 100 // 0.30..0.80
	}

	lo, hi := stepRange(l.Judge.Cond)
	s.Steps = lo + rng.Intn(hi-lo+1)
	if cfg.MaxSteps > 0 && s.Steps > cfg.MaxSteps {
		s.Steps = cfg.MaxSteps
	}

	genCrashes(&s, rng, cfg)
	return s
}

// drawBand is the per-family band object and message-passing scenarios draw
// their shape from: processes in [2, maxN], operations per process in
// [1, maxOps], scheduler steps in [lo, hi].
type drawBand struct{ maxN, maxOps, lo, hi int }

// bandOf returns the family's draw band. An object operation costs roughly a
// dozen steps through the full stack (impl shared-memory steps, Aτ
// announce/snapshot, V_O publish/snapshot), so the object ceiling comfortably
// drains the largest workloads while the floor keeps truncated runs — crashes
// parking a spinlock forever, schedules starving a process — in the mix. One
// emulated operation costs tens of steps (two quorum RPCs, each a broadcast
// plus parked receives, with one delivery-actor step per message), so the
// message-passing band sits well above it, and its process count reaches 5:
// partial-propagation races need quorums that can miss each other.
func bandOf(fam string) drawBand {
	if fam == FamMsg {
		return drawBand{maxN: 5, maxOps: 6, lo: 600, hi: 6000}
	}
	return drawBand{maxN: 4, maxOps: 8, lo: 160, hi: 1600}
}

// newObjSpec draws one object or message-passing scenario of the family from
// the rng. A message-passing scenario also draws its network between the
// workload and the step bound; its loss schedule is deliberately skewed
// toward the protocol bugs' exposure windows — a contiguous run of send
// indices, dropping the tail of one broadcast, which a uniform scatter almost
// never does.
func newObjSpec(rng *rand.Rand, cfg GenConfig, fam string) Spec {
	band := bandOf(fam)
	objects := cfg.drawableObjects(fam)
	object := objects[rng.Intn(len(objects))]
	impls := cfg.implsFor(fam, object)
	s := Spec{
		Family: fam,
		Object: object,
		Impl:   impls[rng.Intn(len(impls))],
		N:      2 + rng.Intn(band.maxN-1),
		Seed:   rng.Int63(),
	}

	// No word cursor exists to prioritize, so the cursor policy (which would
	// degenerate to the random one) stays out of the draw. A biased policy
	// targets no actor in the object family and acts as a differently-seeded
	// uniform draw, kept for schedule diversity; in the message-passing
	// family its cursor lands on the network delivery actor (see
	// executeObj), making it a delivery-eager schedule.
	switch rng.Intn(3) {
	case 0:
		s.Policy = PolRandom
	case 1:
		s.Policy = PolBursty
	default:
		s.Policy = PolBiased
		s.Bias = float64(30+5*rng.Intn(11)) / 100 // 0.30..0.80
	}

	s.OpsPerProc = 1 + rng.Intn(band.maxOps)
	s.MutBias = float64(2+rng.Intn(7)) / 10 // 0.2..0.8, exact decimals

	if fam == FamMsg {
		orders := cfg.netOrders()
		s.NetOrder = orders[rng.Intn(len(orders))]
		if rng.Intn(5) < 2 { // 40% of scenarios are lossy
			start := rng.Intn(40)
			for k, run := 0, 1+rng.Intn(6); k < run; k++ {
				s.Drops = append(s.Drops, start+k)
			}
		}
	}

	s.Steps = band.lo + rng.Intn(band.hi-band.lo+1)
	if cfg.MaxSteps > 0 && s.Steps > cfg.MaxSteps {
		s.Steps = cfg.MaxSteps
	}

	genCrashes(&s, rng, cfg)
	return s
}

// crashProb is the probability a scenario has any crashes at all. Crash-free
// scenarios carry the label-based differential checks, so the generator keeps
// both kinds in the mix.
const crashProb = 0.5

// genCrashes draws the crash schedule shared by every family: with
// probability crashProb, 1..MaxCrashes distinct processes crash at uniform
// steps in [1, Steps−1], canonically ordered.
func genCrashes(s *Spec, rng *rand.Rand, cfg GenConfig) {
	maxCrashes := cfg.MaxCrashes
	if maxCrashes > s.N-1 {
		maxCrashes = s.N - 1
	}
	if maxCrashes > 0 && s.Steps > 1 && rng.Float64() < crashProb {
		k := 1 + rng.Intn(maxCrashes)
		procs := rng.Perm(s.N)[:k]
		for _, p := range procs {
			// The runner consults the crash schedule at steps 0..Steps−1,
			// so a crash at step Steps would never fire.
			s.Crashes = append(s.Crashes, Crash{Step: 1 + rng.Intn(s.Steps-1), Proc: p})
		}
		sortCrashes(s.Crashes)
	}
}

// sortCrashes orders the schedule by step then process, the canonical order
// used by the spec encoding.
func sortCrashes(cs []Crash) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Step != cs[j].Step {
			return cs[i].Step < cs[j].Step
		}
		return cs[i].Proc < cs[j].Proc
	})
}

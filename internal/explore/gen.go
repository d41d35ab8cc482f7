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
	// CrashProb is the probability a scenario has any crashes at all
	// (default 0.5 when MaxCrashes > 0). Crash-free scenarios carry the
	// label-based differential checks, so the generator keeps both kinds in
	// the mix.
	CrashProb float64
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
// sets.
func (g GenConfig) validate() error {
	for _, fam := range g.Families {
		if fam != FamLang && fam != FamObj && fam != FamMsg {
			return fmt.Errorf("explore: unknown scenario family %q", fam)
		}
	}
	for _, name := range g.Langs {
		if _, err := langByName(name); err != nil {
			return err
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
			if implsOf(fam, name) != nil {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("explore: unknown object %q", name)
		}
	}
	for _, impl := range g.Impls {
		found := false
		for _, fam := range registries {
			for _, object := range g.objects(fam) {
				for _, have := range implsOf(fam, object) {
					if have == impl {
						found = true
					}
				}
			}
		}
		if !found {
			return fmt.Errorf("explore: no selected object has an implementation %q", impl)
		}
	}
	// A selected family must have something to draw: object filters naming
	// only the other family's objects would otherwise panic deep in NewSpec.
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
	return nil
}

// implsOf returns the implementation slugs the family's registry holds for
// the object — the message registry for FamMsg, the object registry
// otherwise — or nil for an object the registry lacks.
func implsOf(fam, object string) []string {
	if fam == FamMsg {
		return MsgImplsOf(object)
	}
	return ImplsOf(object)
}

// objects resolves the family's object set, defaulting to its whole
// registry.
func (g GenConfig) objects(fam string) []string {
	switch {
	case len(g.Objects) > 0:
		return g.Objects
	case fam == FamMsg:
		return MsgObjects()
	}
	return Objects()
}

// implsFor returns the object's implementation slugs in the family's
// registry allowed by the config's Impls filter (all of them when the filter
// is empty), in registry order.
func (g GenConfig) implsFor(fam, object string) []string {
	all := implsOf(fam, object)
	if len(g.Impls) == 0 {
		return all
	}
	var keep []string
	for _, name := range all {
		for _, want := range g.Impls {
			if name == want {
				keep = append(keep, name)
			}
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

func langByName(name string) (lang.Lang, error) {
	for _, l := range lang.All() {
		if l.Name == name {
			return l, nil
		}
	}
	return lang.Lang{}, fmt.Errorf("explore: unknown language %q", name)
}

// stepRange returns the scheduler-step bounds scenarios of the family draw
// from. The floors keep the finite-run proxies meaningful (a weak decider
// needs to get past the sources' transient phases before its verdict tail is
// judged); the ceilings keep 500-scenario sweeps interactive — the predictive
// monitors re-check a growing history every round, the sequential-consistency
// ones with an exponential-time witness search.
func stepRange(fam family, langName string) (lo, hi int) {
	switch fam {
	case famWEC:
		return 2500, 6000
	case famSEC:
		return 2000, 3600
	case famECLed:
		return 500, 1500
	default:
		switch langName {
		case "LIN_REG", "LIN_LED":
			return 400, 1200
		default: // SC_REG, SC_LED: exponential witness search, shortest runs
			return 300, 700
		}
	}
}

// NewSpec derives scenario index of the master seed under the config. The
// same (master, index, cfg) triple always yields the same spec, and distinct
// indices draw from independent random streams, so a sweep's scenario list
// does not depend on worker count or on how many scenarios run.
//
// With the default (language-only) family set the draw sequence is exactly
// the pre-drv2 one, so existing sweeps replay byte-for-byte; a multi-family
// config spends one extra draw picking the family first.
func NewSpec(master int64, index int, cfg GenConfig) Spec {
	return newSpecSeeded(rand.New(rand.NewSource(mix(master, int64(index)))), cfg)
}

// newSpecSeeded is NewSpec on a caller-owned rng already seeded with
// mix(master, index). Explore's generator loop reseeds one reusable rng per
// index instead of building a fresh source each time — rand.Rand.Seed
// reproduces rand.NewSource's stream exactly, so the draws are identical.
func newSpecSeeded(rng *rand.Rand, cfg GenConfig) Spec {
	fams := cfg.families()
	fam := fams[0]
	if len(fams) > 1 {
		fam = fams[rng.Intn(len(fams))]
	}
	if fam == FamObj {
		return newObjSpec(rng, cfg)
	}
	if fam == FamMsg {
		return newMsgSpec(rng, cfg)
	}
	names := cfg.Langs
	if len(names) == 0 {
		for _, l := range lang.All() {
			names = append(names, l.Name)
		}
	}
	name := names[rng.Intn(len(names))]
	l, err := langByName(name)
	if err != nil {
		panic(err) // cfg was validated
	}

	s := Spec{
		Lang: name,
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
		// exact for any float64 since the FormatFloat move — mutators perturb
		// off-grid); the grid keeps blind sweeps reproducible across PRs.
		s.Bias = float64(30+5*rng.Intn(11)) / 100 // 0.30..0.80
	}

	lo, hi := stepRange(famOf(name), name)
	s.Steps = lo + rng.Intn(hi-lo+1)
	if cfg.MaxSteps > 0 && s.Steps > cfg.MaxSteps {
		s.Steps = cfg.MaxSteps
	}

	genCrashes(&s, rng, cfg)
	return s
}

// objStepRange is the scheduler-step band object scenarios draw from. An
// operation costs roughly a dozen steps through the full stack (impl shared-
// memory steps, Aτ announce/snapshot, V_O publish/snapshot), so the ceiling
// comfortably drains the largest workloads while the floor keeps truncated
// runs — crashes parking a spinlock forever, schedules starving a process —
// in the mix.
func objStepRange() (lo, hi int) { return 160, 1600 }

// newObjSpec draws one object-execution scenario from the rng.
func newObjSpec(rng *rand.Rand, cfg GenConfig) Spec {
	objects := cfg.drawableObjects(FamObj)
	object := objects[rng.Intn(len(objects))]
	impls := cfg.implsFor(FamObj, object)
	s := Spec{
		Family: FamObj,
		Object: object,
		Impl:   impls[rng.Intn(len(impls))],
		N:      2 + rng.Intn(3), // 2..4 processes
		Seed:   rng.Int63(),
	}

	// No word cursor exists to prioritize, so the cursor policy (which would
	// degenerate to the random one) stays out of the draw; biased policies
	// target no actor and act as a differently-seeded uniform draw, kept for
	// schedule diversity under mutation.
	switch rng.Intn(3) {
	case 0:
		s.Policy = PolRandom
	case 1:
		s.Policy = PolBursty
	default:
		s.Policy = PolBiased
		s.Bias = float64(30+5*rng.Intn(11)) / 100 // 0.30..0.80
	}

	s.OpsPerProc = 1 + rng.Intn(8)          // 1..8 operations per process
	s.MutBias = float64(2+rng.Intn(7)) / 10 // 0.2..0.8, exact decimals

	lo, hi := objStepRange()
	s.Steps = lo + rng.Intn(hi-lo+1)
	if cfg.MaxSteps > 0 && s.Steps > cfg.MaxSteps {
		s.Steps = cfg.MaxSteps
	}

	genCrashes(&s, rng, cfg)
	return s
}

// msgStepRange is the scheduler-step band message-passing scenarios draw
// from. One emulated operation costs tens of steps (two quorum RPCs, each a
// broadcast plus parked receives, with one delivery-actor step per message),
// so the band sits well above the object family's; the ceiling drains the
// largest workloads at n=5 while the floor keeps truncated runs — loss
// schedules starving a quorum forever, crashes parking clients mid-RPC — in
// the mix.
func msgStepRange() (lo, hi int) { return 600, 6000 }

// newMsgSpec draws one message-passing scenario from the rng. Two draws are
// deliberately skewed toward the protocol bugs' exposure windows: the process
// count reaches 5 (partial-propagation races need quorums that can miss each
// other), and the loss schedule is a contiguous run of send indices (dropping
// the tail of one broadcast, which a uniform scatter almost never does).
func newMsgSpec(rng *rand.Rand, cfg GenConfig) Spec {
	objects := cfg.drawableObjects(FamMsg)
	object := objects[rng.Intn(len(objects))]
	impls := cfg.implsFor(FamMsg, object)
	s := Spec{
		Family: FamMsg,
		Object: object,
		Impl:   impls[rng.Intn(len(impls))],
		N:      2 + rng.Intn(4), // 2..5 processes
		Seed:   rng.Int63(),
	}

	// Same policy menu as the object family: no word cursor exists, so the
	// cursor policy stays out; a biased policy's cursor lands on the network
	// delivery actor (see executeMsg), making it a delivery-eager schedule.
	switch rng.Intn(3) {
	case 0:
		s.Policy = PolRandom
	case 1:
		s.Policy = PolBursty
	default:
		s.Policy = PolBiased
		s.Bias = float64(30+5*rng.Intn(11)) / 100 // 0.30..0.80
	}

	s.OpsPerProc = 1 + rng.Intn(6)          // 1..6 operations per process
	s.MutBias = float64(2+rng.Intn(7)) / 10 // 0.2..0.8, exact decimals

	orders := cfg.netOrders()
	s.NetOrder = orders[rng.Intn(len(orders))]
	if rng.Intn(5) < 2 { // 40% of scenarios are lossy
		start := rng.Intn(40)
		for k, run := 0, 1+rng.Intn(6); k < run; k++ {
			s.Drops = append(s.Drops, start+k)
		}
	}

	lo, hi := msgStepRange()
	s.Steps = lo + rng.Intn(hi-lo+1)
	if cfg.MaxSteps > 0 && s.Steps > cfg.MaxSteps {
		s.Steps = cfg.MaxSteps
	}

	genCrashes(&s, rng, cfg)
	return s
}

// genCrashes draws the crash schedule shared by both families: with
// probability CrashProb, 1..MaxCrashes distinct processes crash at uniform
// steps in [1, Steps−1], canonically ordered.
func genCrashes(s *Spec, rng *rand.Rand, cfg GenConfig) {
	maxCrashes := cfg.MaxCrashes
	if maxCrashes > s.N-1 {
		maxCrashes = s.N - 1
	}
	crashProb := cfg.CrashProb
	if crashProb == 0 {
		crashProb = 0.5
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

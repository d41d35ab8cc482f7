package explore

// Seeded spec mutators: the exploitation half of guided exploration. A
// mutation keeps most of a corpus parent — the part that reached a novel
// coverage class — and perturbs one axis at a time: the crash schedule (the
// axis the WD/PWD/PSD oracles are most sensitive to), the scheduling policy
// and its bias, the step bound, the process count, and the labelled source
// within the parent's language. Everything is drawn from the caller's rng,
// so a guided sweep is as replay-deterministic as a blind one.

import (
	"math/rand"
	"sort"

	"github.com/drv-go/drv/internal/msgnet"
)

// Mutation step-bound rails: mutations scale a parent's bound by 0.5–1.5×
// per op, clamped so compounding across corpus generations can neither
// starve every check (floor) nor blow up sweep time (cap; above the largest
// family ceiling in stepRange, so mutation still reaches past generation).
const (
	mutateStepFloor = 16
	mutateStepCap   = 8000
)

// langMutators is the language family's op list. Its length and order are
// part of the replay contract: reordering it (or appending to it) would
// shift every rng draw of every existing guided sweep.
var langMutators = []func(*Spec, *rand.Rand, GenConfig) bool{
	mutReseed,
	mutPolicy,
	mutBias,
	mutSteps,
	mutProcs,
	mutSource,
	mutCrashInsert,
	mutCrashMove,
	mutCrashDrop,
}

// objMutators is the object family's op list: the shared axes plus the
// impl-swap and the workload perturbations, minus the source swap (object
// scenarios have no labelled source).
var objMutators = []func(*Spec, *rand.Rand, GenConfig) bool{
	mutReseed,
	mutPolicy,
	mutBias,
	mutSteps,
	mutProcs,
	mutImpl,
	mutOps,
	mutMutBias,
	mutCrashInsert,
	mutCrashMove,
	mutCrashDrop,
}

// msgMutators is the message-passing family's op list: the object family's
// axes plus the network ones — the delivery-order swap and the loss-schedule
// perturbations, the axis the partial-propagation bugs are most sensitive
// to. Like the other lists, its length and order are part of the replay
// contract for guided sweeps.
var msgMutators = []func(*Spec, *rand.Rand, GenConfig) bool{
	mutReseed,
	mutPolicy,
	mutBias,
	mutSteps,
	mutProcs,
	mutImpl,
	mutOps,
	mutMutBias,
	mutNetOrder,
	mutDropInsert,
	mutDropShift,
	mutDropClear,
	mutCrashInsert,
	mutCrashMove,
	mutCrashDrop,
}

// Mutate derives a child spec from a corpus parent: one primary mutation
// plus a geometric tail of extras, re-canonicalized (crash order, bounds)
// after each op. The child is always executable; if a mutation chain ever
// produced an invalid spec it falls back to the parent, which parsed or
// generated valid. cfg bounds what mutation may add — MaxCrashes gates
// crash insertion, MaxSteps overrides the step cap — but a parent loaded
// from disk is taken as-is even where it exceeds cfg (in particular, a
// parent keeps its family and object even when the config's filters would
// not generate it fresh: corpus contents are the caller's choice).
func Mutate(parent Spec, rng *rand.Rand, cfg GenConfig) Spec {
	s := parent
	// Own the crash schedule: ops append to it and canonicalize sorts and
	// compacts it in place, which must never reach through the copied slice
	// header into the corpus entry the parent came from.
	s.Crashes = append([]Crash(nil), parent.Crashes...)
	s.Drops = append([]int(nil), parent.Drops...)
	if len(s.Drops) == 0 {
		s.Drops = nil
	}
	ops := langMutators
	switch s.Fam() {
	case FamObj:
		ops = objMutators
	case FamMsg:
		ops = msgMutators
	}
	mutated := false
	for round := 0; round < 4; round++ {
		if ops[rng.Intn(len(ops))](&s, rng, cfg) {
			mutated = true
		}
		if mutated && rng.Float64() >= 0.4 {
			break
		}
	}
	canonicalize(&s)
	if !mutated || s.validate() != nil {
		return parent
	}
	return s
}

// canonicalize restores the spec invariants a mutation chain may have bent:
// crash schedule in step-then-process order, one crash per process (the
// earliest wins), every crash step inside [1, Steps−1], at most N−1 crashes;
// for message-passing specs also a strictly increasing in-bounds loss
// schedule of at most msgnet.MaxScheduleDrops entries.
func canonicalize(s *Spec) {
	if len(s.Drops) > 0 {
		sort.Ints(s.Drops)
		kept := s.Drops[:0]
		prev := -1
		for _, k := range s.Drops {
			if k < 0 || k > msgnet.MaxScheduleDropIdx || k == prev {
				continue
			}
			kept = append(kept, k)
			prev = k
		}
		if len(kept) > msgnet.MaxScheduleDrops {
			kept = kept[:msgnet.MaxScheduleDrops]
		}
		if len(kept) == 0 {
			kept = nil
		}
		s.Drops = kept
	}
	sortCrashes(s.Crashes)
	kept := s.Crashes[:0]
	crashed := map[int]bool{}
	for _, c := range s.Crashes {
		if crashed[c.Proc] || c.Step < 1 || c.Step >= s.Steps || c.Proc < 0 || c.Proc >= s.N {
			continue
		}
		crashed[c.Proc] = true
		kept = append(kept, c)
	}
	if len(kept) > s.N-1 {
		kept = kept[:s.N-1]
	}
	if len(kept) == 0 {
		kept = nil
	}
	s.Crashes = kept
}

// mutReseed redraws the source/schedule seed: same scenario shape, entirely
// different behaviour and interleaving.
func mutReseed(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	s.Seed = rng.Int63()
	return true
}

// mutPolicy swaps the scheduling policy kind; a swap to biased draws a
// fresh, unquantized bias. Redrawing the parent's own kind is only a
// mutation for biased (the bias itself changed). Object and message-passing
// scenarios skip the cursor kind — with no word cursor it degenerates to the
// random policy.
func mutPolicy(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	old := s.Policy
	kinds := []string{PolRandom, PolBursty, PolCursor, PolBiased}
	if s.Fam() != FamLang {
		kinds = []string{PolRandom, PolBursty, PolBiased}
	}
	s.Policy = kinds[rng.Intn(len(kinds))]
	s.Bias = 0
	if s.Policy == PolBiased {
		s.Bias = 0.05 + 0.9*rng.Float64()
		return true
	}
	return s.Policy != old
}

// mutBias perturbs a biased policy's bias without leaving [0,1].
func mutBias(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Policy != PolBiased {
		return false
	}
	s.Bias += (rng.Float64() - 0.5) * 0.3
	if s.Bias < 0 {
		s.Bias = 0
	}
	if s.Bias > 1 {
		s.Bias = 1
	}
	return true
}

// mutSteps rescales the step bound by 0.5–1.5×; crashes past the new bound
// are dropped by canonicalize.
func mutSteps(s *Spec, rng *rand.Rand, cfg GenConfig) bool {
	s.Steps = int(float64(s.Steps) * (0.5 + rng.Float64()))
	if s.Steps < mutateStepFloor {
		s.Steps = mutateStepFloor
	}
	// The cap applies after the floor: a user-supplied MaxSteps below the
	// floor must still win, exactly as newSpecSeeded honors it.
	lim := mutateStepCap
	if cfg.MaxSteps > 0 && cfg.MaxSteps < lim {
		lim = cfg.MaxSteps
	}
	if s.Steps > lim {
		s.Steps = lim
	}
	return true
}

// mutProcs grows or shrinks the process count within the generator's band —
// 2–4, except 2–5 for message-passing scenarios, whose quorum-geometry bugs
// need the larger counts (a parent already outside the band is left there);
// a language scenario's source is re-picked if the parent's name does not
// exist at the new count (object implementations exist at every count).
func mutProcs(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	n := s.N
	if rng.Intn(2) == 0 {
		n--
	} else {
		n++
	}
	hi := 4
	if s.Fam() != FamLang {
		hi = bandOf(s.Fam()).maxN
	}
	if n < 2 || n > hi || n == s.N {
		return false
	}
	s.N = n
	if s.Fam() == FamLang && !hasSource(*s) {
		pickSource(s, rng)
	}
	return true
}

// mutImpl swaps the implementation for another of the parent's object — the
// axis that carries a bug-exposing schedule from a correct implementation to
// a seeded-bug one and back. A draw that lands on the current implementation
// is not a mutation. Message-passing parents swap within their own registry.
func mutImpl(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	impls := ImplsOf(s.Fam(), s.Object)
	if len(impls) < 2 {
		return false
	}
	old := s.Impl
	pick := impls[rng.Intn(len(impls))]
	if pick == old {
		pick = impls[rng.Intn(len(impls))]
	}
	s.Impl = pick
	return s.Impl != old
}

// mutOps perturbs the per-process operation budget by ±1..3 within the
// spec's valid band.
func mutOps(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamObj && s.Fam() != FamMsg {
		return false
	}
	delta := 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	ops := s.OpsPerProc + delta
	if ops < 1 {
		ops = 1
	}
	if ops > maxOpsPerProc {
		ops = maxOpsPerProc
	}
	if ops == s.OpsPerProc {
		return false
	}
	s.OpsPerProc = ops
	return true
}

// mutMutBias perturbs the workload's mutate bias without leaving [0,1].
func mutMutBias(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamObj && s.Fam() != FamMsg {
		return false
	}
	s.MutBias += (rng.Float64() - 0.5) * 0.4
	if s.MutBias < 0 {
		s.MutBias = 0
	}
	if s.MutBias > 1 {
		s.MutBias = 1
	}
	return true
}

// mutNetOrder swaps the message delivery-order kind; a draw that lands on
// the parent's own kind is not a mutation. The config's NetOrders filter
// does not gate the swap — like the family filters, a corpus parent's
// network shape is the caller's choice to perturb.
func mutNetOrder(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamMsg {
		return false
	}
	kinds := []string{msgnet.OrderFIFO, msgnet.OrderLIFO, msgnet.OrderRandom, msgnet.OrderStarve}
	old := s.NetOrder
	s.NetOrder = kinds[rng.Intn(len(kinds))]
	return s.NetOrder != old
}

// mutDropInsert splices a contiguous run of 1..4 dropped send indices into
// the loss schedule — contiguous runs truncate one broadcast's tail, the
// shape that opens partial-propagation windows. canonicalize merges, dedups
// and caps the result.
func mutDropInsert(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamMsg || len(s.Drops) >= msgnet.MaxScheduleDrops {
		return false
	}
	start := rng.Intn(60)
	for k, run := 0, 1+rng.Intn(4); k < run; k++ {
		s.Drops = append(s.Drops, start+k)
	}
	return true
}

// mutDropShift slides the whole loss schedule by ±1..8 send indices, keeping
// its run structure while moving it across broadcast boundaries.
func mutDropShift(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamMsg || len(s.Drops) == 0 {
		return false
	}
	delta := 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	for i := range s.Drops {
		s.Drops[i] += delta
		if s.Drops[i] < 0 {
			s.Drops[i] = 0
		}
	}
	return true
}

// mutDropClear empties the loss schedule, returning the parent to a reliable
// network.
func mutDropClear(s *Spec, _ *rand.Rand, _ GenConfig) bool {
	if s.Fam() != FamMsg || len(s.Drops) == 0 {
		return false
	}
	s.Drops = nil
	return true
}

// mutSource swaps the labelled source for another of the parent's language;
// a draw that lands back on the current source is not a mutation.
func mutSource(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	old := s.Source
	pickSource(s, rng)
	return s.Source != old
}

// mutCrashInsert schedules a crash for a not-yet-crashed process, bounded by
// the fault model (≤ N−1 crashes) and the generator config.
func mutCrashInsert(s *Spec, rng *rand.Rand, cfg GenConfig) bool {
	max := s.N - 1
	if cfg.MaxCrashes < max {
		max = cfg.MaxCrashes
	}
	if len(s.Crashes) >= max || s.Steps < 2 {
		return false
	}
	crashed := map[int]bool{}
	for _, c := range s.Crashes {
		crashed[c.Proc] = true
	}
	var alive []int
	for p := 0; p < s.N; p++ {
		if !crashed[p] {
			alive = append(alive, p)
		}
	}
	s.Crashes = append(s.Crashes, Crash{
		Proc: alive[rng.Intn(len(alive))],
		Step: 1 + rng.Intn(s.Steps-1),
	})
	return true
}

// mutCrashMove reschedules one crash to a fresh step.
func mutCrashMove(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if len(s.Crashes) == 0 || s.Steps < 2 {
		return false
	}
	s.Crashes[rng.Intn(len(s.Crashes))].Step = 1 + rng.Intn(s.Steps-1)
	return true
}

// mutCrashDrop removes one crash from the schedule.
func mutCrashDrop(s *Spec, rng *rand.Rand, _ GenConfig) bool {
	if len(s.Crashes) == 0 {
		return false
	}
	i := rng.Intn(len(s.Crashes))
	s.Crashes = append(append([]Crash{}, s.Crashes[:i]...), s.Crashes[i+1:]...)
	return true
}

// hasSource reports whether the spec's source name exists at its (N, Seed).
func hasSource(s Spec) bool {
	l, err := langByName(s.Lang)
	if err != nil {
		return false
	}
	for _, cand := range l.Sources(s.N, s.Seed) {
		if cand.Name == s.Source {
			return true
		}
	}
	return false
}

// pickSource draws a source of the spec's language, preferring one that
// differs from the current.
func pickSource(s *Spec, rng *rand.Rand) {
	l, err := langByName(s.Lang)
	if err != nil {
		return
	}
	sources := l.Sources(s.N, s.Seed)
	pick := sources[rng.Intn(len(sources))].Name
	if pick == s.Source && len(sources) > 1 {
		pick = sources[rng.Intn(len(sources))].Name
	}
	s.Source = pick
}

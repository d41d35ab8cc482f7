package explore

// The minimizing replay: a divergent spec is shrunk to a small reproducer
// before being reported, so a failure reads as "these 15 scheduler steps
// with this seed break the monitor" instead of a 5000-step execution dump.
// Shrinking only ever re-executes candidate specs through the same Runner
// and keeps a candidate exactly when it still diverges, so the reproducer is
// trustworthy by construction; it need not fail the same check as the
// original (a smaller execution may surface the root divergence more
// directly, e.g. a per-verdict oracle instead of a tail proxy).
//
// The same machinery minimizes object-family bug findings: shrinkWhere
// parameterizes what counts as "still interesting" — stack divergences for
// a report's divergent scenarios, exposed implementation bugs
// (OracleFailures) for its Bug entries. A sweep shrinks from the findings its
// own execution of the scenario produced; ShrinkBugSpec executes the scenario
// first.

// defaultShrinkBudget bounds candidate executions per shrink.
const defaultShrinkBudget = 200

// ShrinkBugSpec minimizes an object scenario that exposed a planted
// implementation bug, preserving "some oracle failure survives" instead of
// "some divergence survives" — the reproducer shows the bug, in as few
// scheduler steps (and workload operations) as the seed's schedule allows.
func ShrinkBugSpec(s Spec, r Runner, budget int) (Spec, []Divergence) {
	r.classOnly = true
	return shrinkFresh(s, r, budget, oracleFailures)
}

func divergences(o *Outcome) []Divergence    { return o.Divergences }
func oracleFailures(o *Outcome) []Divergence { return o.OracleFailures }

// shrinkFresh executes s once for the findings pick extracts, then shrinks
// from them.
func shrinkFresh(s Spec, r Runner, budget int, pick func(*Outcome) []Divergence) (Spec, []Divergence) {
	out, err := r.Execute(s)
	if err != nil {
		return s, nil
	}
	return shrinkWhere(s, pick(out), r, budget, pick)
}

// shrinkWhere is the generic minimizer. found are the findings an execution
// of s produced, and pick extracts a candidate's findings that must survive
// shrinking (non-empty = the candidate is still interesting); the smallest
// interesting spec is returned with its surviving findings. An empty found
// returns s with none. The budget counts the execution that produced found,
// which shrinkWhere does not repeat, so a budget of 1 returns s as is. Since
// found is taken as given, the exported forms' nondeterministic-monitor
// remark does not apply here.
func shrinkWhere(s Spec, found []Divergence, r Runner, budget int, pick func(*Outcome) []Divergence) (Spec, []Divergence) {
	if budget <= 0 {
		budget = defaultShrinkBudget
	}
	if len(found) == 0 {
		return s, nil
	}
	budget-- // the execution that produced found
	last := found
	diverges := func(cand Spec) bool {
		if budget <= 0 {
			return false
		}
		budget--
		out, err := r.Execute(cand)
		if err != nil || len(pick(out)) == 0 {
			return false
		}
		last = pick(out)
		return true
	}
	best := s

	// Axis 1: crashes. Try none at all, then dropping one at a time.
	if len(best.Crashes) > 0 {
		if cand := best; diverges(withCrashes(cand, nil)) {
			best.Crashes = nil
		}
	}
	for i := 0; i < len(best.Crashes); {
		cs := make([]Crash, 0, len(best.Crashes)-1)
		cs = append(cs, best.Crashes[:i]...)
		cs = append(cs, best.Crashes[i+1:]...)
		if diverges(withCrashes(best, cs)) {
			best.Crashes = cs
		} else {
			i++
		}
	}

	// Axis 1b (message-passing family): the loss schedule. Try a reliable
	// network first, then dropping entries one at a time — a reproducer
	// whose bug survives without message loss is simpler to reason about
	// than one threading a loss schedule through it.
	if best.Fam() == FamMsg && len(best.Drops) > 0 {
		if diverges(withDrops(best, nil)) {
			best.Drops = nil
		}
	}
	for i := 0; i < len(best.Drops); {
		ds := make([]int, 0, len(best.Drops)-1)
		ds = append(ds, best.Drops[:i]...)
		ds = append(ds, best.Drops[i+1:]...)
		if diverges(withDrops(best, ds)) {
			best.Drops = ds
		} else {
			i++
		}
	}

	// Axis 2: processes. Crash schedules naming dropped processes are
	// discarded first — a reproducer with fewer processes beats one with
	// more crashes.
	for n := best.N - 1; n >= 1; n-- {
		cand := best
		cand.N = n
		cand.Crashes = nil
		for _, c := range best.Crashes {
			if c.Proc < n {
				cand.Crashes = append(cand.Crashes, c)
			}
		}
		if !diverges(cand) {
			break
		}
		best = cand
	}

	// Axis 3 (object and message-passing families): the per-process
	// operation budget. Halve while the finding survives, then a short
	// linear pass; fewer operations make the eventual step-bound reproducer
	// read as a near-sequential script.
	if best.Fam() == FamObj || best.Fam() == FamMsg {
		withOps := func(ops int) Spec {
			cand := best
			cand.OpsPerProc = ops
			return cand
		}
		for best.OpsPerProc > 1 && diverges(withOps(best.OpsPerProc/2)) {
			best = withOps(best.OpsPerProc / 2)
		}
		for best.OpsPerProc > 1 && diverges(withOps(best.OpsPerProc-1)) {
			best = withOps(best.OpsPerProc - 1)
		}
	}

	// Axis 4: steps. Halve while the divergence survives, bisect the gap
	// left by the failed halving (log₂ executions instead of one per step),
	// then a short linear pass mops up non-monotone tails.
	atSteps := func(steps int) Spec {
		cand := best
		cand.Steps = steps
		cand.Crashes = clampCrashes(best.Crashes, steps)
		return cand
	}
	for best.Steps > 1 && diverges(atSteps(best.Steps/2)) {
		best = atSteps(best.Steps / 2)
	}
	lo, hi := best.Steps/2, best.Steps // lo failed (or is 0), hi diverges
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if diverges(atSteps(mid)) {
			best, hi = atSteps(mid), mid
		} else {
			lo = mid
		}
	}
	for best.Steps > 1 && diverges(atSteps(best.Steps-1)) {
		best = atSteps(best.Steps - 1)
	}

	// Every successful diverges call installed its candidate as best, so
	// last always holds best's findings.
	return best, last
}

func withCrashes(s Spec, cs []Crash) Spec {
	s.Crashes = cs
	return s
}

func withDrops(s Spec, ds []int) Spec {
	s.Drops = ds
	return s
}

// clampCrashes keeps crashes that can still fire inside the step bound
// (the runner checks the schedule at steps 0..steps−1).
func clampCrashes(cs []Crash, steps int) []Crash {
	var out []Crash
	for _, c := range cs {
		if c.Step < steps {
			out = append(out, c)
		}
	}
	return out
}

package explore

// Coverage signatures: a compact deterministic abstraction of one executed
// scenario, coarse enough that blind uniform sampling saturates it and fine
// enough that the rare shapes — late crashes racing verdict tails, starved
// cursors, predictive escapes — land in their own classes. The guided
// explorer keeps one corpus entry per signature and spends part of each
// round mutating those entries, so exploration concentrates on the boundary
// of what has been seen instead of re-drawing the bulk of the space.
//
// Granularity is the tuning knob: every axis below is bucketed (log₂ capped
// for magnitudes, quarters for positions) and per-process data folds into a
// sorted multiset, because a signature fine enough to make every scenario
// novel guides nothing — the corpus would just mirror the sweep.

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"github.com/drv-go/drv/internal/monitor"
)

// sigVersion tags the signature algorithm; corpus entries persist their
// signature, so a change here must invalidate stale dedup data.
const sigVersion = "c1"

// signatureOf derives the outcome's coverage signature. Equal executions
// yield equal signatures (everything folded is replay-deterministic).
// Execute computes it before the optional replay pass, so the replay check
// never appears in the ran/skipped vector or the divergence fold.
func signatureOf(o *Outcome, res *monitor.Result) string {
	// The language and ω-label anchor the class; the source name is left out
	// deliberately — a source manifests through the verdict shapes and check
	// vectors it induces, and naming it would multiply every behavioural
	// class by the source list without adding behaviour.
	var b strings.Builder
	b.WriteString(sigVersion)
	b.WriteByte(':')
	b.WriteString(o.Spec.Lang)
	if o.Label {
		b.WriteString("/in")
	} else {
		b.WriteString("/out")
	}

	writeVerdictShape(&b, res)
	writeCrashAxis(&b, o, res)

	// Per-check ran/skipped vector in langCheckNames order: r ran, s
	// skipped, - not applicable this run. The vector is pinned to the
	// language family's own check list — folding the union of both
	// families' checks here would shift every signature (and invalidate
	// every committed corpus entry) each time a family gains a check.
	b.WriteString("|ck=")
	writeCheckVector(&b, o, langCheckNames())

	// Adversary cursor stats: the gate backlog the schedule left behind
	// (capped bucket) and whether the source script ended. The emitted depth
	// is left out — it tracks the step bound, which already shapes every
	// other axis.
	b.WriteString("|cu=")
	b.WriteString(strconv.Itoa(capBucket(log2Bucket(o.Cursor.Queued), 2)))
	if o.Cursor.Exhausted {
		b.WriteByte('x')
	}

	// Divergences are the rarest shape of all: fold the distinct failed
	// check names so each divergence kind is its own class.
	writeNameFold(&b, "|dv=", o.Divergences, langCheckNames())
	return b.String()
}

// writeVerdictShape renders the verdict-stream shape axis as counts over the
// processes (which process showed a shape rarely matters): how many opened on
// NO, how many hold NO in their tail window, how many reported nothing at
// all, and a capped bucket of the total verdict flips — the axis that
// separates converging monitors from oscillating ones. Process counts fold as
// none/one/many (capBucket at 2): whether SOME process held NO or stayed
// silent separates behaviours, the exact count mostly echoes N.
func writeVerdictShape(b *strings.Builder, res *monitor.Result) {
	firstNO, tailNO, silent, flips := 0, 0, 0, 0
	for p := range res.Verdicts {
		vs := res.Verdicts[p]
		if len(vs) == 0 {
			silent++
			continue
		}
		if vs[0] == monitor.No {
			firstNO++
		}
		if res.NOInTail(p, evalWindow) {
			tailNO++
		}
		for k := 1; k < len(vs); k++ {
			if vs[k] != vs[k-1] {
				flips++
			}
		}
	}
	b.WriteString("|vs=")
	b.WriteString(strconv.Itoa(len(res.Verdicts)))
	b.WriteByte('n')
	b.WriteString(strconv.Itoa(capBucket(firstNO, 2)))
	b.WriteString(strconv.Itoa(capBucket(tailNO, 2)))
	b.WriteString(strconv.Itoa(capBucket(silent, 2)))
	b.WriteString(strconv.Itoa(capBucket(log2Bucket(flips), 3)))
}

// writeCrashAxis renders the crash/verdict interleaving class, a sorted
// multiset over crashes: the quarter of the run the crash landed in and where
// it fell relative to the crashed process's verdict stream (before the first
// verdict, mid-stream, or after the last). Crash-free outcomes render
// nothing.
func writeCrashAxis(b *strings.Builder, o *Outcome, res *monitor.Result) {
	if len(o.Spec.Crashes) == 0 {
		return
	}
	cxs := make([]string, 0, len(o.Spec.Crashes))
	for _, c := range o.Spec.Crashes {
		cxs = append(cxs, strconv.Itoa(quarter(c.Step, o.Spec.Steps))+crashPhase(c, res.StepAt[c.Proc]))
	}
	sort.Strings(cxs)
	b.WriteString("|cx=")
	b.WriteString(strings.Join(cxs, ","))
}

// writeCheckVector renders the per-check ran/skipped vector over the given
// name list: r ran, s skipped, - not applicable this run.
func writeCheckVector(b *strings.Builder, o *Outcome, names []string) {
	ran := map[string]bool{}
	for _, c := range o.Ran {
		ran[c] = true
	}
	skipped := map[string]bool{}
	for _, c := range o.Skipped {
		skipped[c] = true
	}
	for _, name := range names {
		switch {
		case ran[name]:
			b.WriteByte('r')
		case skipped[name]:
			b.WriteByte('s')
		default:
			b.WriteByte('-')
		}
	}
}

// writeNameFold folds the distinct Check names of the findings, in the
// given order, under the axis prefix — each finding kind becomes its own
// coverage class. Shared by the divergence and oracle-failure axes.
func writeNameFold(b *strings.Builder, prefix string, findings []Divergence, order []string) {
	if len(findings) == 0 {
		return
	}
	b.WriteString(prefix)
	names := map[string]bool{}
	for _, d := range findings {
		names[d.Check] = true
	}
	first := true
	for _, name := range order {
		if names[name] {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(name)
			first = false
		}
	}
}

// objSignature is the coverage signature of the object and message-passing
// families: the same granularity philosophy as signatureOf, with the
// family/object/impl triple anchoring the class and a workload axis replacing
// the cursor axis (object runs have no word cursor). Message-passing outcomes
// add a network axis, so schedules that differ in delivery order or loss
// pressure land in distinct classes and guided mutation explores the network
// dimension too. Failed oracles fold like divergences — a spec whose schedule
// exposes a planted bug is a coverage class of its own, which is what steers
// the guided explorer toward bug-adjacent schedules. Language signatures fold
// over their own check list and never gain an axis here, so every committed
// corpus entry keeps its signature bit for bit.
func objSignature(o *Outcome, res *monitor.Result) string {
	var b strings.Builder
	b.WriteString(sigVersion)
	b.WriteByte(':')
	b.WriteString(o.Spec.Fam())
	b.WriteByte('/')
	b.WriteString(o.Spec.Object)
	b.WriteByte('/')
	b.WriteString(o.Spec.Impl)

	writeVerdictShape(&b, res)
	writeCrashAxis(&b, o, res)

	b.WriteString("|ck=")
	writeCheckVector(&b, o, ObjCheckNames())

	// Workload axis: the per-process operation budget (log₂ bucket) and
	// whether the run drained its workload or was cut by the step bound —
	// the boundary the crash/spinlock interactions live on, and the same
	// signal that gates the monitor-lin completeness oracle.
	b.WriteString("|wl=")
	b.WriteString(strconv.Itoa(capBucket(log2Bucket(o.Spec.OpsPerProc), 4)))
	if !res.Drained {
		b.WriteByte('t') // truncated at the step bound
	}

	// Network axis: the delivery-order kind and a capped log₂ bucket of the
	// loss-schedule length — none/light/heavy loss behave differently long
	// before the exact indices matter.
	if o.Spec.Fam() == FamMsg {
		b.WriteString("|nt=")
		b.WriteString(o.Spec.NetOrder)
		b.WriteString(strconv.Itoa(capBucket(log2Bucket(len(o.Spec.Drops)), 3)))
	}

	// Exposed planted bugs fold by oracle name, divergences by check name.
	writeNameFold(&b, "|bug=", o.OracleFailures, oracleNames())
	writeNameFold(&b, "|dv=", o.Divergences, ObjCheckNames())
	return b.String()
}

// oracleNames lists the oracle labels in deterministic fold order.
func oracleNames() []string {
	return []string{OracleLin, OracleSC, OracleSECSafety, OracleECSafety}
}

// log2Bucket maps a non-negative count onto 0, 1, 2, ... by bit length:
// 0→0, 1→1, 2..3→2, 4..7→3, ...
func log2Bucket(n int) int { return bits.Len(uint(n)) }

// capBucket clamps a bucket to the top class "max or beyond".
func capBucket(b, max int) int {
	if b > max {
		return max
	}
	return b
}

// quarter maps a step inside [0, bound) onto its quarter 0..3.
func quarter(step, bound int) int {
	if bound <= 0 {
		return 0
	}
	q := 4 * step / bound
	if q > 3 {
		q = 3
	}
	return q
}

// crashPhase classifies a crash against the crashed process's verdict steps:
// "a" before any verdict, "m" between the first and the last, "z" after the
// last.
func crashPhase(c Crash, stepAt []int) string {
	if len(stepAt) == 0 || c.Step < stepAt[0] {
		return "a"
	}
	if c.Step >= stepAt[len(stepAt)-1] {
		return "z"
	}
	return "m"
}

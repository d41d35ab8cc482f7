package trace

// Verdict is a value a monitor process reports in Line 06 of the generic
// algorithm (Figure 1 of the paper).
type Verdict uint8

const (
	// Yes reports the behaviour is (still) considered correct.
	Yes Verdict = iota + 1
	// No reports a violation.
	No
	// Maybe reports insufficient information (three-valued monitors, §7).
	Maybe
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "YES"
	case No:
		return "NO"
	case Maybe:
		return "MAYBE"
	default:
		return "verdict(?)"
	}
}

// Result is the outcome of a monitored execution.
type Result struct {
	// History is the input word x(E): all send/receive events in real-time
	// order as recorded by the service. It aliases the service's own
	// buffer rather than copying it, so it has the lifetime of the rest of
	// the Result: a pooled session's Result, and its History, are valid
	// until that session's next run (which re-arms the service); clone
	// what must outlive it, and never modify it in place.
	History Word
	// Verdicts holds each process's reported values in report order.
	Verdicts [][]Verdict
	// Responses holds each process's received responses (with views when the
	// service is timed), for sketch reconstruction. A response is recorded as
	// soon as it is received, before the round's verdict, so a run cut
	// between the two leaves a process with one more entry here than in
	// Verdicts; otherwise the two are aligned.
	Responses [][]Response
	// Invs holds each process's sent invocations, aligned with Responses
	// (and so possibly one entry longer than Verdicts).
	Invs [][]Symbol
	// StepAt records the global scheduler step at which each verdict was
	// reported, aligned with Verdicts.
	StepAt [][]int
	// PulledAt records how many source symbols the adversary had consumed
	// when each verdict was reported (0 when the service does not track it).
	PulledAt [][]int
	// HistAt records the length of the exhibited history x(E) when each
	// verdict was reported, aligned with Verdicts (0 when the service does
	// not expose HistLen). History[:HistAt[p][k]] is exactly the input-word
	// prefix process p's k-th verdict judges — the comparison surface that
	// lets offline oracles be evaluated verdict by verdict.
	HistAt [][]int
	// Steps is the number of scheduler steps taken.
	Steps int
	// Drained reports that the run ended because every actor parked or
	// exited (the service's behaviour script or workload was exhausted)
	// rather than by hitting the step bound. Offline oracles that reason
	// about the *final* verdicts ("the last check saw every operation") are
	// only meaningful on drained runs — a step-bound cutoff can land between
	// a response and the verdict that judges it. Always false under a custom
	// Drive loop, which owns its own termination.
	Drained bool
}

// Procs returns the number of monitor processes; part of core.Stats.
func (r *Result) Procs() int { return len(r.Verdicts) }

// NOCount returns how many times process p reported NO.
func (r *Result) NOCount(p int) int {
	n := 0
	for _, v := range r.Verdicts[p] {
		if v == No {
			n++
		}
	}
	return n
}

// TotalNO returns the number of NO reports across all processes.
func (r *Result) TotalNO() int {
	t := 0
	for p := range r.Verdicts {
		t += r.NOCount(p)
	}
	return t
}

// NOInTail reports whether process p reported NO among its last window
// reports. Finite-run proxy for "reports NO infinitely often".
func (r *Result) NOInTail(p, window int) bool {
	v := r.Verdicts[p]
	start := len(v) - window
	if start < 0 {
		start = 0
	}
	for _, d := range v[start:] {
		if d == No {
			return true
		}
	}
	return false
}

// Triples reassembles the sketch triples observed by process p (or by all
// processes when p < 0) from a run against a timed service. Responses
// without views (untimed services) are skipped.
func (r *Result) Triples(p int) []Triple {
	var out []Triple
	for i := range r.Responses {
		if p >= 0 && i != p {
			continue
		}
		for k, resp := range r.Responses[i] {
			if resp.View == nil {
				continue
			}
			out = append(out, Triple{
				ID:   resp.ID,
				Inv:  r.Invs[i][k],
				Res:  resp.Sym,
				View: *resp.View,
			})
		}
	}
	return out
}

// Sketch builds the global sketch x~(E) from all processes' observations of
// a run against a timed service, using resolve to recover the invocation
// symbol of operations that appear in views but never responded (typically
// the timed adversary's InvAt method).
func (r *Result) Sketch(n int, resolve Resolver) (Word, error) {
	return BuildSketch(n, r.Triples(-1), resolve)
}

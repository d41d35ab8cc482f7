package monitor

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
)

// TestHistAtRecordsHistoryPrefixes pins the verdict/oracle comparison
// surface: HistAt must align with Verdicts, grow monotonically per process,
// never exceed the final history, and — the property differential checkers
// rely on — History[:HistAt[p][k]] must already contain the response that
// process p's k-th verdict judged.
func TestHistAtRecordsHistoryPrefixes(t *testing.T) {
	src := lang.WECCount().Sources(testProcs, 1)[0]
	res := runUntimedSteps(NewWEC(adversary.ArrayAtomic), src.New(), 1, 4_000)
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	for p := range res.Verdicts {
		if len(res.HistAt[p]) != len(res.Verdicts[p]) {
			t.Fatalf("process %d: %d HistAt entries for %d verdicts", p, len(res.HistAt[p]), len(res.Verdicts[p]))
		}
		prev := 0
		for k, hl := range res.HistAt[p] {
			if hl < prev {
				t.Fatalf("process %d: HistAt regressed from %d to %d at verdict %d", p, prev, hl, k)
			}
			if hl > len(res.History) {
				t.Fatalf("process %d: HistAt %d exceeds history length %d", p, hl, len(res.History))
			}
			prev = hl
			// The k-th verdict follows the k-th response: the prefix must
			// contain at least k+1 responses of process p.
			responses := 0
			for _, s := range res.History[:hl] {
				if s.Proc == p && s.Kind == trace.Res {
					responses++
				}
			}
			if responses < k+1 {
				t.Fatalf("process %d: verdict %d reported with only %d own responses in its history prefix", p, k, responses)
			}
		}
	}
}

// TestHistAtTimedService checks the surface against Aτ, whose outer history
// is what the monitors actually judge.
func TestHistAtTimedService(t *testing.T) {
	src := lang.SECCount().Sources(testProcs, 1)[0]
	res, _ := runTimedSteps(func(tau *adversary.Timed) Monitor {
		return NewSEC(tau, adversary.ArrayAtomic)
	}, src.New(), 1, 1_500)
	total := 0
	for p := range res.Verdicts {
		total += len(res.Verdicts[p])
		for k, hl := range res.HistAt[p] {
			if hl == 0 {
				t.Fatalf("process %d verdict %d recorded a zero history length against a timed service", p, k)
			}
		}
	}
	if total == 0 {
		t.Fatal("run produced no verdicts")
	}
}

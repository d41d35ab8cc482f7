package experiment

import (
	"context"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// TestTable1UnitsUnderRunnableDifferential runs every Table 1 unit — the
// monitor sweeps, the scheduled proof constructions and the prefix attacks —
// with the maintained ≡ polled differential on, so each step's maintained
// runnable set must equal a full re-poll of every gate. Every cell must
// reproduce, and the table must be the one the same parameters print
// without the check (the root test pins that one to the golden).
func TestTable1UnitsUnderRunnableDifferential(t *testing.T) {
	p := DefaultParams()
	if testing.Short() {
		p = ShortParams()
	}
	table := func() string {
		rows, err := Run(context.Background(), p, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			for _, c := range row.Cells {
				if c.Err != nil {
					t.Errorf("%s × %s: %v", row.Lang, c.Class, c.Err)
				}
			}
		}
		return Render(rows)
	}
	want := table()
	defer sched.VerifyRunnable(sched.VerifyRunnable(true))
	if got := table(); got != want {
		t.Errorf("table under the differential:\n%s\nwithout it:\n%s", got, want)
	}
}

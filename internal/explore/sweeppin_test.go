package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/drv-go/drv/internal/sched"
)

// sweepDigestPins are, per scenario family, the SHA-256 over the replay
// digests of the 200 scenarios of master 1 (MaxCrashes 2, the CLI default),
// one digest per line in scenario order. A digest covers a run's step count,
// its exhibited history and every verdict with the step it was issued at,
// so the pins hold every scheduler, network and adversary change to the
// same executions, scenario by scenario.
var sweepDigestPins = map[string]string{
	FamLang: "d1528b914fb707db96917acb6fab1f886819fb5963e90d84646183e8681323d2",
	FamObj:  "cf0b94ab348faae1d95d73b79b88773968ef57e842b79074feebd3f75a97640f",
	FamMsg:  "7e0d393b3b2c782e63c61639f28928a4a66d98375a2065849fb7f4b80bd09eeb",
}

// sweepDigests runs the 200-scenario sweep of one family and returns the
// SHA-256 of its scenario digests in scenario order.
func sweepDigests(t *testing.T, fam string) string {
	t.Helper()
	const scenarios = 200
	digests := make([]string, scenarios)
	_, err := Explore(Options{
		Master:     1,
		Scenarios:  scenarios,
		Workers:    2,
		Gen:        GenConfig{Families: []string{fam}, MaxCrashes: 2},
		OnScenario: func(i int, out *Outcome) { digests[i] = out.Digest },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, d := range digests {
		if d == "" {
			t.Fatalf("%s scenario %d reported no digest", fam, i)
		}
		h.Write([]byte(d + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepDigestsPinned runs the three pinned sweeps with the maintained ≡
// polled differential on: at every step of every scenario, the runtime's
// maintained runnable set must equal a full re-poll of every gate, and the
// runs must still be the pinned ones.
func TestSweepDigestsPinned(t *testing.T) {
	defer sched.VerifyRunnable(sched.VerifyRunnable(true))
	for _, fam := range []string{FamLang, FamObj, FamMsg} {
		if got := sweepDigests(t, fam); got != sweepDigestPins[fam] {
			t.Errorf("%s sweep digests hash to %s, pinned %s", fam, got, sweepDigestPins[fam])
		}
	}
}

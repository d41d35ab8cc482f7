package check_test

import (
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
)

// TestECLedgerMatchesReferenceOnSourceWords pins the per-symbol checker to
// the batch reference on every prefix of every EC_LED source's word: a fresh
// check.ECLedger fed the prefix whole answers check.ECLedgerSafety.
func TestECLedgerMatchesReferenceOnSourceWords(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 120
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, lb := range lang.ECLed().Sources(3, seed) {
			src := lb.New()
			var w trace.Word
			for len(w) < steps {
				s, ok := src.Next()
				if !ok {
					break
				}
				w = append(w, s)
			}
			for k := 1; k <= len(w); k++ {
				c := check.NewECLedger()
				for _, s := range w[:k] {
					c.Append(s)
				}
				if want := check.ECLedgerSafety(w[:k]); c.OK() != (want == nil) {
					t.Fatalf("%s seed %d prefix %d: OK = %v, ECLedgerSafety = %v", lb.Name, seed, k, c.OK(), want)
				}
			}
		}
	}
}

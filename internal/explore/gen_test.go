package explore

import (
	"math/rand"
	"strings"
	"testing"
)

// TestNewSpecPinned pins the generator's draw sequence: the first eight specs
// of master 1 for each single family and for the three-family mix. Every
// blind sweep, corpus pin and bench row replays these draws, so a refactor of
// the generator must leave them byte-identical.
func TestNewSpecPinned(t *testing.T) {
	cases := []struct {
		fams []string
		want []string
	}{
		{[]string{FamLang}, []string{
			"drv1:SC_REG/stale-reads:n=3:seed=2251441636647462266:pol=cursor:steps=391:crash=1@37,2@337",
			"drv1:SC_LED/lost-append:n=2:seed=7391348420186114548:pol=biased/0.4:steps=683:crash=0@4",
			"drv1:SC_REG/atomic:n=3:seed=4673935509006190695:pol=biased/0.75:steps=679:crash=1@128",
			"drv1:SEC_COUNT/non-monotone:n=3:seed=8984979764578311850:pol=random:steps=2421",
			"drv1:SC_REG/phantom:n=2:seed=6040358228490166651:pol=biased/0.45:steps=398",
			"drv1:WEC_COUNT/non-monotone:n=2:seed=6321407734847785155:pol=cursor:steps=4938",
			"drv1:WEC_COUNT/non-monotone:n=4:seed=116997767789688697:pol=bursty:steps=4467",
			"drv1:WEC_COUNT/diverge:n=3:seed=6359917801191391489:pol=cursor:steps=4405:crash=2@4193",
		}},
		{[]string{FamObj}, []string{
			"drv2:obj/counter/aadgms:n=3:seed=3566792242370050691:pol=bursty:steps=749:ops=8:mb=0.7",
			"drv2:obj/queue/lifo:n=4:seed=4734229158102406609:pol=random:steps=963:ops=5:mb=0.8:crash=3@523",
			"drv2:obj/register/stale:n=3:seed=7090288557196959638:pol=bursty:steps=354:ops=4:mb=0.3",
			"drv2:obj/register/stale:n=2:seed=6095979766697399412:pol=random:steps=1131:ops=3:mb=0.7:crash=1@94",
			"drv2:obj/counter/stuck:n=2:seed=5950292735356911468:pol=random:steps=1127:ops=6:mb=0.8:crash=1@304",
			"drv2:obj/stack/lock:n=3:seed=8822486309906722188:pol=biased/0.45:steps=860:ops=1:mb=0.8",
			"drv2:obj/counter/snapshot:n=4:seed=1664008149908764877:pol=random:steps=501:ops=7:mb=0.7",
			"drv2:obj/counter/aadgms:n=2:seed=2338094577834960477:pol=random:steps=1370:ops=5:mb=0.4",
		}},
		{[]string{FamMsg}, []string{
			"drv3:msg/register/abd:n=3:seed=3566792242370050691:pol=bursty:steps=5517:ops=6:mb=0.7:net=lifo",
			"drv3:msg/counter/lost:n=4:seed=4734229158102406609:pol=random:steps=1369:ops=1:mb=0.8:net=fifo",
			"drv3:msg/counter/lost:n=2:seed=7090288557196959638:pol=bursty:steps=1552:ops=2:mb=0.3:net=random:drop=19,20,21,22,23",
			"drv3:msg/consensus/coord:n=3:seed=6095979766697399412:pol=random:steps=5156:ops=3:mb=0.7:net=fifo:drop=31,32,33,34",
			"drv3:msg/counter/abd:n=4:seed=5950292735356911468:pol=random:steps=5750:ops=4:mb=0.8:net=lifo:drop=34,35,36,37,38:crash=0@370",
			"drv3:msg/register/abd:n=5:seed=8822486309906722188:pol=biased/0.45:steps=4721:ops=5:mb=0.8:net=random:crash=2@3251,3@3655",
			"drv3:msg/register/nowriteback:n=3:seed=1664008149908764877:pol=random:steps=3948:ops=3:mb=0.7:net=lifo:drop=6,7,8:crash=0@3150",
			"drv3:msg/counter/lost:n=5:seed=2338094577834960477:pol=random:steps=4917:ops=1:mb=0.4:net=fifo:drop=32",
		}},
		{[]string{FamLang, FamObj, FamMsg}, []string{
			"drv1:SC_LED/stale-gets:n=3:seed=3566792242370050691:pol=biased/0.35:steps=411",
			"drv2:obj/queue/lock:n=4:seed=2042153061433172471:pol=random:steps=880:ops=3:mb=0.3",
			"drv2:obj/ledger/lock:n=2:seed=6352823184404715554:pol=bursty:steps=1360:ops=7:mb=0.5",
			"drv3:msg/counter/lost:n=2:seed=5175712738877008457:pol=biased/0.65:steps=4629:ops=1:mb=0.6:net=starve:drop=4,5",
			"drv2:obj/ledger/forked:n=4:seed=3142553574013427423:pol=random:steps=204:ops=2:mb=0.3:crash=2@53",
			"drv1:LIN_REG/inversion:n=3:seed=8822486309906722188:pol=random:steps=587:crash=0@450",
			"drv1:WEC_COUNT/own-inc-violation:n=4:seed=1664008149908764877:pol=cursor:steps=4015:crash=0@1497,2@1927",
			"drv2:obj/counter/snapshot:n=4:seed=6182422261756034402:pol=random:steps=771:ops=3:mb=0.8",
		}},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.fams, ","), func(t *testing.T) {
			cfg := GenConfig{Families: tc.fams, MaxCrashes: 2}
			for i, want := range tc.want {
				if got := NewSpec(1, i, cfg).String(); got != want {
					t.Errorf("NewSpec(1, %d) = %q, want %q", i, got, want)
				}
			}
		})
	}
}

// NewSpec derives scenario index of the master seed under the config on a
// fresh rng: the sweep's draw, one scenario at a time.
func NewSpec(master int64, index int, cfg GenConfig) Spec {
	return newSpecSeeded(rand.New(rand.NewSource(mix(master, int64(index)))), cfg)
}

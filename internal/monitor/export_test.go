package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
)

// Shadowed order-free monitors for the external tests that drive them
// through the experiment package's constructions (see orderfree_test.go).
var (
	NewShadowECLed      = newShadowECLed
	NewShadowNaiveOrder = newShadowNaiveOrder
)

// NewLinPerProcess and NewSCPerProcess are NewLin and NewSC with a chain per
// process on every board kind, an atomic one included: the reference the
// one chain an atomic board's processes share is compared with.
func NewLinPerProcess(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("lin-fig8-per-process/"+obj.Name()+"/"+kind.String(), tau, kind, obj, true, false)
}

func NewSCPerProcess(obj trace.Object, tau *adversary.Timed, kind adversary.ArrayKind) Monitor {
	return newPredictive("sc-fig8-per-process/"+obj.Name()+"/"+kind.String(), tau, kind, obj, false, false)
}

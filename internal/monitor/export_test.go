package monitor

// Shadowed order-free monitors for the external tests that drive them
// through the experiment package's constructions (see orderfree_test.go).
var (
	NewShadowECLed      = newShadowECLed
	NewShadowNaiveOrder = newShadowNaiveOrder
)

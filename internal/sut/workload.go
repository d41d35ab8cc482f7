package sut

import (
	"math/rand"

	"github.com/drv-go/drv/exp/trace"
)

// RandomWorkload draws each process's operations independently from the
// object's signature, weighting mutating operations by MutateBias. Arguments
// come from the object's RandArg with a per-process generator, so workloads
// replay deterministically per (seed, process).
type RandomWorkload struct {
	obj      trace.Object
	bias     float64
	mutating []trace.OpSig
	reading  []trace.OpSig
	budget   []int
	rngs     []*rand.Rand
}

// NewRandomWorkload builds a workload of opsPerProc operations per process
// with the given mutate bias in [0,1].
func NewRandomWorkload(obj trace.Object, n, opsPerProc int, bias float64, seed int64) *RandomWorkload {
	w := &RandomWorkload{}
	w.Reset(obj, n, opsPerProc, bias, seed)
	return w
}

// Reset re-arms the workload for another run, reusing the budget and
// signature buffers and re-seeding the per-process generators in place —
// rand.Rand.Seed restores exactly the state a fresh rand.NewSource would
// start from, so a reset workload draws the same operation stream as a fresh
// one with the same parameters.
func (w *RandomWorkload) Reset(obj trace.Object, n, opsPerProc int, bias float64, seed int64) {
	if w.obj == nil || w.obj.Name() != obj.Name() {
		w.mutating, w.reading = w.mutating[:0], w.reading[:0]
		for _, sig := range obj.Ops() {
			if sig.Mutating {
				w.mutating = append(w.mutating, sig)
			} else {
				w.reading = append(w.reading, sig)
			}
		}
	}
	w.obj, w.bias = obj, bias
	if cap(w.budget) >= n {
		w.budget = w.budget[:n]
	} else {
		w.budget = make([]int, n)
	}
	for i := 0; i < n; i++ {
		w.budget[i] = opsPerProc
	}
	for i := 0; i < n && i < len(w.rngs); i++ {
		w.rngs[i].Seed(seed + int64(i)*7919)
	}
	for i := len(w.rngs); i < n; i++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed+int64(i)*7919)))
	}
}

// Next implements Workload.
func (w *RandomWorkload) Next(id int) (string, trace.Value, bool) {
	if w.budget[id] <= 0 {
		return "", nil, false
	}
	w.budget[id]--
	rng := w.rngs[id]
	pool := w.reading
	if len(w.mutating) > 0 && (len(w.reading) == 0 || rng.Float64() < w.bias) {
		pool = w.mutating
	}
	sig := pool[rng.Intn(len(pool))]
	arg := w.obj.RandArg(sig.Name, rng)
	if _, ok := arg.(trace.Unit); ok && sig.Name != trace.OpWrite {
		// Reads/gets/incs carry no argument symbolically; use nil like the
		// scripted sources so histories compare equal.
		arg = nil
	}
	return sig.Name, arg, true
}

// ScriptWorkload replays fixed per-process operation scripts; used by
// regression tests that need a specific interleaving potential.
type ScriptWorkload struct {
	scripts [][]trace.Symbol
	pos     []int
}

// NewScriptWorkload builds a workload from per-process invocation scripts.
// Only the Op and Val fields of the symbols are used.
func NewScriptWorkload(scripts [][]trace.Symbol) *ScriptWorkload {
	return &ScriptWorkload{scripts: scripts, pos: make([]int, len(scripts))}
}

// Next implements Workload.
func (w *ScriptWorkload) Next(id int) (string, trace.Value, bool) {
	if w.pos[id] >= len(w.scripts[id]) {
		return "", nil, false
	}
	s := w.scripts[id][w.pos[id]]
	w.pos[id]++
	return s.Op, s.Val, true
}

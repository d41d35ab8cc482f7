// Package sketch implements the construction of Appendix B: from the views a
// timed adversary Aτ attaches to responses, build the history x~(E) — the
// sketch of the execution's input word in which operations may "shrink"
// (Figure 7). Theorem 6.1 gives the two properties monitors rely on:
// precedence in x(E) is preserved in x~(E), and x~(E) is the input of an
// execution indistinguishable from E.
//
// The construction is re-homed in the exported exp/trace package (as
// BuildSketch/SketchBuilder) and aliased here; the timeline renderers stay
// internal.
package sketch

import (
	"github.com/drv-go/drv/exp/trace"
)

// ErrIncomparableViews reports views not totally ordered by containment.
var ErrIncomparableViews = trace.ErrIncomparableViews

// Triple is one process's record of a completed operation: the operation
// identifier, its invocation and response symbols, and the view attached to
// the response.
type Triple = trace.Triple

// Resolver recovers the invocation symbol of an operation identifier.
type Resolver = trace.Resolver

// Build constructs the sketch x~(E) from the triples of a run against a
// timed adversary.
var Build = trace.BuildSketch

// Builder extends a sketch by each round's new triples (Extend) and
// amortizes Build's allocations across repeated constructions.
type Builder = trace.SketchBuilder

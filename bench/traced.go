package main

import (
	"fmt"
	"time"
)

// size is how much of its inputs a traced part drives. The smoke test
// shrinks both sizes further (bench.toy).
type size int

const (
	// sizeSide is a part the traced run's workload does not own: a short
	// pass, so every traced run reports every layer.
	sizeSide size = iota
	// sizeFull is the workload's own part: its inputs for the run length,
	// plus an untraced pass of the same work for the tracing overhead.
	sizeFull
)

// partFunc drives one part's inputs through the library, recording spans
// into sp (nil for none) and checks into o. It returns the part's per-layer
// metrics and, at full size, the traced-to-untraced wall ratio.
type partFunc func(b *bench, sz size, sp *spans, o *outcome) (metrics, float64, error)

// parts are the traced run's library parts, in run order.
var parts = []struct {
	name string
	fn   partFunc
}{
	{"experiment", experimentLayers},
	{"explore.lang", exploreLayers("lang")},
	{"explore.obj", exploreLayers("obj")},
	{"explore.msg", exploreLayers("msg")},
	{"stack", stackLayers},
	{"serve", serveLayers},
}

// traced is the --trace 1 run: every part, the workload's own at full size
// and the rest briefly, so that each traced run reports the whole layer
// profile; trace_overhead comes from the workload's own part.
func (b *bench) traced(w workload, sp *spans) (*outcome, error) {
	o := &outcome{result: result{Metrics: metrics{}}}
	for _, p := range parts {
		sz := sizeSide
		if p.name == w.part {
			sz = sizeFull
		}
		start := time.Now()
		m, overhead, err := p.fn(b, sz, sp, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		fmt.Fprintf(b.log, "traced %s part in %.3f s\n", p.name, time.Since(start).Seconds())
		for name, v := range m {
			o.Metrics[name] = v
		}
		if sz == sizeFull {
			o.Metrics.set("trace_overhead", "ratio", overhead)
		}
	}
	return o, nil
}

// sharedPool returns the serve traffic pool, recorded once per traced run
// and shared by the stack and serve parts.
func (b *bench) sharedPool() (*pool, error) {
	if b.pool == nil {
		p, err := newPool(b.seed, b.poolScale())
		if err != nil {
			return nil, err
		}
		b.pool = p
	}
	return b.pool, nil
}

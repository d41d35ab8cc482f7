package main

import (
	"time"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/spec"
	"github.com/drv-go/drv/internal/sut"
)

// probeReps is how many seeded runs each monitor-stack probe times.
const probeReps = 6

// stackLayers times the monitor stack one layer at a time, on seeded
// inputs, through a pooled monitor session as the explorer and the Table 1
// engine use it:
//
//   - sched: the bare Figure 1 loop, a constant monitor against the untimed
//     adversary exhibiting a WEC_COUNT source, per scheduler step;
//   - adversary: the same loop on a LIN_REG source with the timed adversary
//     Aτ wrapped around it, minus the bare loop, per step;
//   - monitor: V_O (monitor.NewLin) against a constant monitor on the
//     Aτ-wrapped SUT stacks the object family runs, per verdict;
//   - sketch: rebuilding the sketch of each of those V_O runs;
//   - check: the incremental checker fed the pool's linearizability
//     histories symbol by symbol, and the from-scratch check per history.
func stackLayers(b *bench, _ size, sp *spans, o *outcome) (metrics, float64, error) {
	p, err := b.sharedPool()
	if err != nil {
		return nil, 0, err
	}
	s := monitor.NewSession()
	defer s.Close()
	m := metrics{}

	// loop times one constant-monitor run of a language source and returns
	// its wall time and scheduler steps.
	loop := func(name string, l lang.Lang, timed bool, rep int) (time.Duration, int) {
		adv := adversary.NewA(procs, l.Sources(procs, mix(b.seed, rep))[0].New())
		var svc adversary.Service = adv
		if timed {
			svc = adversary.NewTimed(procs, adv, adversary.ArrayAtomic)
		}
		id := sp.begin(name, 0, rep)
		start := time.Now()
		res := s.Run(monitor.Config{
			N:       procs,
			Monitor: monitor.Constant(monitor.Yes),
			NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
				return svc, []int{adv.Register(rt)}
			},
			Policy:   func(aux []int) sched.Policy { return sched.Biased(mix(b.seed, rep), aux[0], 0.5) },
			MaxSteps: 10_000,
		})
		d := time.Since(start)
		sp.end(id)
		o.Attempted++
		return d, res.Steps
	}
	perStep := func(name string, l lang.Lang, timed bool) float64 {
		var total time.Duration
		steps := 0
		for rep := range probeReps {
			d, n := loop(name, l, timed, rep)
			total += d
			steps += n
		}
		return float64(total.Nanoseconds()) / float64(steps)
	}
	m.set("sched.step_ns", "ns", perStep("stack.sched", lang.WECCount(), false))
	m.set("adversary.timed_step_ns", "ns",
		perStep("stack.adversary.timed", lang.LinReg(), true)-perStep("stack.adversary.bare", lang.LinReg(), false))

	// SUT stacks under Aτ, monitored by V_O or by a constant monitor.
	stacks := []struct {
		obj  spec.Object
		impl func() sut.Impl
	}{
		{spec.Queue(), func() sut.Impl { return sut.NewLockQueue() }},
		{spec.Register(), func() sut.Impl { return sut.NewAtomicRegister() }},
	}
	var linTime, constTime, sketchTime time.Duration
	verdicts, sketches := 0, 0
	for rep := range probeReps {
		st := stacks[rep%len(stacks)]
		for _, lin := range []bool{false, true} {
			svc := sut.NewService(procs, st.impl(), sut.NewRandomWorkload(st.obj, procs, 8, 0.5, mix(b.seed, rep)))
			tau := adversary.NewTimed(procs, svc, adversary.ArrayAtomic)
			mon, name := monitor.Constant(monitor.Yes), "stack.monitor.constant"
			if lin {
				mon, name = monitor.NewLin(st.obj, tau, adversary.ArrayAtomic), "stack.monitor.lin"
			}
			id := sp.begin(name, 0, rep)
			start := time.Now()
			res := s.Run(monitor.Config{
				N:          procs,
				Monitor:    mon,
				NewService: func(*sched.Runtime) (adversary.Service, []int) { return tau, nil },
				Policy:     func([]int) sched.Policy { return sched.Random(mix(b.seed, rep)) },
				MaxSteps:   60_000,
			})
			d := time.Since(start)
			sp.end(id)
			o.Attempted++
			if !lin {
				constTime += d
				continue
			}
			linTime += d
			for p := range res.Verdicts {
				verdicts += len(res.Verdicts[p])
			}
			id = sp.begin("stack.sketch", 0, rep)
			start = time.Now()
			_, err := trace.BuildSketch(procs, res.Triples(-1), tau.InvAt)
			sketchTime += time.Since(start)
			sp.end(id)
			sketches++
			if err != nil {
				o.fail(1, "sketch of a V_O run on an atomic-array stack: "+err.Error())
			}
		}
	}
	m.set("monitor.publish_us_per_verdict", "us", float64((linTime-constTime).Nanoseconds())/1e3/float64(verdicts))
	m.set("sketch.build_us", "us", float64(sketchTime.Nanoseconds())/1e3/float64(sketches))

	// The checkers over the pool's linearizability histories.
	var appendTime, scratchTime time.Duration
	symbols, histories := 0, 0
	for i, h := range p.all {
		cfg := h.monitorConfig()
		if cfg.Object == nil {
			continue
		}
		id := sp.begin("stack.check.append", 0, i)
		start := time.Now()
		c := check.NewIncremental(cfg.Object, true, procs)
		ok := true
		for _, sym := range h.word {
			c.Append(sym)
			ok = c.OK()
		}
		appendTime += time.Since(start)
		sp.end(id)
		symbols += len(h.word)

		id = sp.begin("stack.check.scratch", 0, i)
		start = time.Now()
		scratch := check.LinearizableOps(cfg.Object, trace.Operations(h.word))
		scratchTime += time.Since(start)
		sp.end(id)
		histories++

		o.Attempted++
		if ok != scratch || (!ok && h.object != "stale") {
			o.fail(1, "the incremental and from-scratch checks disagree on a pooled "+h.object+" history")
		}
	}
	m.set("check.append_ns", "ns", float64(appendTime.Nanoseconds())/float64(symbols))
	m.set("check.scratch_us", "us", float64(scratchTime.Nanoseconds())/1e3/float64(histories))
	return m, 0, nil
}

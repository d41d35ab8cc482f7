package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/serve"
)

// The open-loop rates, in events per second: about 15% and 50% of the
// events per second a saturated drvserve sustained under this traffic on
// the reference machine (see README.md for how to recalibrate them).
const (
	rateLow  = 5600
	rateHigh = 18800
)

// runServeTCP is the serve-tcp workload: a drvserve child on a loopback
// port, driven over two TCP connections through a warm-up, a low-rate and
// a high-rate open-loop phase and a closed-loop saturation phase. Every
// stream's response lines are compared byte for byte with a standalone
// exp/monitor replay of its history. Set-up (recording the pool, computing
// its reference verdicts, drawing the schedule, starting drvserve until it
// answers a handshake) runs three times; the first two servers are stopped
// again.
func runServeTCP(b *bench) (*outcome, error) {
	o := &outcome{result: result{Metrics: metrics{}}}
	var setup []float64
	var srv *server
	var tr *traffic
	var digest [sha256.Size]byte
	for i := range 3 {
		start := time.Now()
		p, err := newPool(b.seed, b.poolScale())
		if err != nil {
			return nil, err
		}
		tr = newTraffic(p, b.seed, b.trafficLength(sizeFull), rateLow, rateHigh)
		s, err := b.startServer()
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if d := p.digest(); i == 0 {
			digest = d
		} else if d != digest {
			o.fail(0, "the same seed recorded two different pools")
		}
		if i < 2 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}

	res, err := runTraffic(srv.addr, tr)
	stopErr := srv.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	st := res.stats()
	o.Attempted += st.attempted
	if st.failed > 0 || st.firstFailure != "" {
		o.fail(st.failed, st.firstFailure)
	}
	b.logTraffic(res, st)
	o.Metrics.set("setup_s", "s", median(setup))
	o.Metrics.set("throughput_per_s", "1/s", st.satRate())
	o.Metrics.set("latency_p50_ms", "ms", median(st.lowVerdictMs))
	return o, nil
}

// poolScale sizes the pool: smaller in the smoke test.
func (b *bench) poolScale() float64 {
	if b.toy {
		return 0.25
	}
	return 1
}

// trafficLength is the length of the traffic plan: the run length for the
// workload's own traffic, two seconds for a side pass or the smoke test.
func (b *bench) trafficLength(sz size) time.Duration {
	if sz == sizeFull && !b.toy {
		return b.length
	}
	return 2 * time.Second
}

// logTraffic prints the run's validity checks and calibration figures.
func (b *bench) logTraffic(r *runResult, st trafficStats) {
	for _, ph := range []int{phaseLow, phaseHigh} {
		l := r.lateness[ph]
		p99 := percentile(l, 99)
		warn := ""
		if p99 > 5 {
			warn = " (over the 5 ms the open-loop schedule allows)"
		}
		fmt.Fprintf(b.log, "serve: %s phase: generator lateness p99 %.3f ms over %d lines%s\n", phaseNames[ph], p99, len(l), warn)
	}
	fmt.Fprintf(b.log, "serve: %d streams, %d failed; saturation %.0f verdicts/s, %.0f events/s\n",
		st.attempted, st.failed, st.satRate(), float64(st.satEvents)/st.satSeconds)
	fmt.Fprintf(b.log, "serve: low-rate verdict latency ms: %s\n", describe(st.lowVerdictMs))
	fmt.Fprintf(b.log, "serve: high-rate close-to-done ms: %s\n", describe(st.highCloseMs))
}

// digest fingerprints every request and reference line of the pool.
func (p *pool) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, hs := range p.all {
		for _, t := range append(append([]template(nil), hs.req...), hs.resp...) {
			h.Write(t.pre)
			h.Write(t.post)
		}
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// serveLayers is the traced serve part. It passes every pooled history
// through the serve layers' public calls — decoding its request lines as
// the server does, replaying it with exp/monitor, encoding its response
// lines — and then runs the traffic against an in-process serve.New on a
// loopback port, timing each stream's send, queue wait and emission. At
// full size it also times the pool pass untraced, for the overhead ratio.
func serveLayers(b *bench, sz size, sp *spans, o *outcome) (metrics, float64, error) {
	p, err := b.sharedPool()
	if err != nil {
		return nil, 0, err
	}
	m := metrics{}
	overhead := 0.0
	if sz == sizeFull {
		// A first pass warms the session and caches, so that neither timed
		// pass pays for that.
		if err := poolPass(p, nil, o); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := poolPass(p, nil, o); err != nil {
			return nil, 0, err
		}
		untraced := time.Since(start)
		start = time.Now()
		if err := poolPass(p, sp, o); err != nil {
			return nil, 0, err
		}
		overhead = time.Since(start).Seconds() / untraced.Seconds()
	} else if err := poolPass(p, sp, o); err != nil {
		return nil, 0, err
	}

	// Per-line and per-event costs from the traced pass's span self times.
	self := selfTimes(sp.snapshot())
	var lines, respLines, verdicts, nos, steps, bytesIn, bytesOut int
	events := make([]int, len(classes))
	for _, h := range p.all {
		lines += len(h.req)
		respLines += len(h.resp)
		events[h.class] += len(h.word)
		verdicts += h.verdicts
		nos += h.nos
		steps += h.steps
		for _, t := range h.req {
			bytesIn += len(t.pre) + len(t.post)
		}
		for _, t := range h.resp {
			bytesOut += len(t.pre) + len(t.post) + 1
		}
	}
	m.set("serve.decode_ns_per_line", "ns", float64(self["serve.decode"])/float64(lines))
	m.set("serve.encode_ns_per_line", "ns", float64(self["serve.encode"])/float64(respLines))
	for c, cl := range classes {
		m.set("serve.replay_us_per_event."+cl.name, "us", float64(self["serve.replay."+cl.name])/1e3/float64(events[c]))
	}
	m.set("serve.verdicts", "count", float64(verdicts))
	m.set("serve.no_verdicts", "count", float64(nos))
	m.set("serve.replay_steps", "count", float64(steps))
	m.set("serve.bytes_in", "count", float64(bytesIn))
	m.set("serve.bytes_out", "count", float64(bytesOut))

	// The traffic, against an in-process server.
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	tr := newTraffic(p, b.seed, b.trafficLength(sz), rateLow, rateHigh)
	res, err := runTraffic(ln.Addr().String(), tr)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-serveErr
	if err != nil {
		return nil, 0, err
	}
	st := res.stats()
	o.Attempted += st.attempted
	if st.failed > 0 || st.firstFailure != "" {
		o.fail(st.failed, st.firstFailure)
	}
	b.logTraffic(res, st)
	for i, s := range res.streams {
		if s.phase != phaseHigh || len(s.times) < len(s.hist.resp) {
			continue
		}
		closeDue := s.start.Add(s.hist.closeDue())
		id := sp.add("serve.stream", 0, i, s.start, s.doneAt())
		sp.add("serve.send", id, i, s.start, closeDue)
		sp.add("serve.wait", id, i, closeDue, s.times[1])
		sp.add("serve.emit", id, i, s.times[1], s.doneAt())
	}
	m.set("serve.queue_wait_ms_p50", "ms", percentile(st.highWaitMs, 50))
	m.set("serve.queue_wait_ms_p95", "ms", percentile(st.highWaitMs, 95))
	m.set("serve.emit_ms_p50", "ms", percentile(st.highEmitMs, 50))
	m.set("serve.gen_lateness_ms_p99", "ms", percentile(append(append([]float64(nil), res.lateness[phaseLow]...), res.lateness[phaseHigh]...), 99))
	m.set("serve.low.verdict_p99_ms", "ms", percentile(st.lowVerdictMs, 99))
	m.set("serve.high.close_to_done_p50_ms", "ms", percentile(st.highCloseMs, 50))
	m.set("serve.high.close_to_done_p95_ms", "ms", percentile(st.highCloseMs, 95))
	return m, overhead, nil
}

// poolPass sends every pooled history through the serve layers, recording
// a decode, replay and encode span per history, and checks that the replay
// reproduces the reference lines.
func poolPass(p *pool, sp *spans, o *outcome) error {
	s := monitor.NewSession()
	defer s.Close()
	const id = "bench-0"
	var buf []byte
	for i, h := range p.all {
		root := sp.begin("serve.history", 0, i)

		span := sp.begin("serve.decode", root, i)
		var word trace.Word
		for _, t := range h.req {
			buf = t.appendTo(buf[:0], id)
			var req serve.Request
			if err := json.Unmarshal(buf, &req); err != nil {
				return err
			}
			if req.Event != nil && req.Event.Kind == trace.KindSym {
				sym, err := trace.DecodeSymbol(req.Event.Event)
				if err != nil {
					return err
				}
				word = append(word, sym)
			}
		}
		sp.end(span)

		span = sp.begin("serve.replay."+classes[h.class].name, root, i)
		cfg := h.monitorConfig()
		cfg.History = word
		res, err := s.Run(cfg)
		sp.end(span)
		if err != nil {
			return err
		}

		span = sp.begin("serve.encode", root, i)
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, r := range responses(res, id) {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		sp.end(span)
		sp.end(root)

		o.Attempted++
		if !sameLines(out.Bytes(), h.resp, id) {
			o.fail(1, fmt.Sprintf("replaying a pooled %s %s history did not reproduce its reference lines", classes[h.class].name, h.object))
		}
	}
	return nil
}

// sameLines reports whether the NDJSON in out is exactly the reference
// lines for stream id.
func sameLines(out []byte, want []template, id string) bool {
	got := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	if len(got) != len(want) {
		return false
	}
	for k, l := range got {
		if !want[k].equal(l, id) {
			return false
		}
	}
	return true
}

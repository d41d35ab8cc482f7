package main

// The serve-tcp load generator: one process, two TCP connections. Open-loop
// phases send each stream's lines on a schedule fixed in advance, whatever
// the server does, and time every response from when its input was due;
// the closed-loop phase keeps a fixed number of streams in flight per
// connection and measures what the server can sustain.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/drv-go/drv/internal/serve"
)

// conns is the generator's connection count; stream i uses connection i mod
// conns.
const conns = 2

// doneGrace is how long a stream's done line may lag the end of its phase
// before the stream counts as failed.
const doneGrace = 5 * time.Second

// Phase indices of a traffic plan.
const (
	phaseWarm = iota
	phaseLow
	phaseHigh
	phaseSat
	numPhases
)

var phaseNames = [numPhases]string{"warm", "low", "high", "sat"}

// traffic is the whole input of one serve-tcp run: the open-loop arrivals of
// the warm-up, low-rate and high-rate phases, and the histories the
// closed-loop saturation phase draws in order.
type traffic struct {
	open     [phaseSat][]arrival
	windows  [numPhases]time.Duration
	closed   []*history
	inflight int // closed-loop streams in flight per connection
}

// newTraffic draws a run's traffic from the pool. The phases split the run
// length 10/20/30/40: the high-rate phase is long enough for a p95 of its
// streams, the saturation phase the longest because the closed loop is the
// noisiest; rLow and rHigh are the open-loop rates in events per second.
func newTraffic(p *pool, seed int64, length time.Duration, rLow, rHigh float64) *traffic {
	rng := rand.New(rand.NewSource(mix(seed, 7)))
	t := &traffic{inflight: 16}
	t.windows = [numPhases]time.Duration{length / 10, length * 2 / 10, length * 3 / 10, length * 4 / 10}
	rates := [phaseSat]float64{rLow, rLow, rHigh}
	pk := p.picker(rng)
	for ph := range t.open {
		t.open[ph] = pk.openLoop(rates[ph], t.windows[ph], rng)
	}
	// More than a saturated server completes in the window; the list wraps
	// if it does not.
	t.closed = pk.closedLoop(4096)
	return t
}

// stream is one verdict stream of a run.
type stream struct {
	id    string
	hist  *history
	phase int
	// start is when the open line was due (open loop) or written (closed
	// loop); line j of an open-loop stream is due at start + j·lineGap.
	start time.Time
	// Response lines and their receipt times, filled after the run.
	lines [][]byte
	times []time.Time
}

// received is one response line as the reader saw it.
type received struct {
	at   time.Time
	line []byte
}

// clientConn is one generator connection.
type clientConn struct {
	c   net.Conn
	bw  *bufio.Writer
	log []received // filled by the reader goroutine

	// terminal is called by the reader for a stream's done or error line.
	terminal func(id string)
	// closedDone carries the ids of finished closed-loop streams back to the
	// sender; it never holds more than the streams in flight.
	closedDone chan string

	// lateness[k] is how late (ms) the k-th open-loop line was written, and
	// phaseOf[k] its phase.
	lateness []float64
	phaseOf  []int
}

// runResult is what one traffic run observed.
type runResult struct {
	streams  []*stream
	satStart time.Time
	satEnd   time.Time
	// lateness holds, per phase, how late each open-loop line was written
	// (ms).
	lateness [numPhases][]float64
	connErr  error
}

// runTraffic drives t against the server at addr and returns what it saw.
// It returns an error only when it cannot connect; protocol failures show
// up as failed streams.
func runTraffic(addr string, t *traffic) (*runResult, error) {
	cs := make([]*clientConn, conns)
	for i := range cs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			for _, o := range cs[:i] {
				o.c.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs[i] = &clientConn{c: c, bw: bufio.NewWriterSize(c, 64<<10), closedDone: make(chan string, t.inflight)}
	}
	r := &runResult{}
	openLeft := &countdown{zero: make(chan struct{})}
	var mu sync.Mutex
	finished := map[string]bool{}
	for _, cc := range cs {
		cc.terminal = func(id string) {
			mu.Lock()
			first := !finished[id]
			finished[id] = true
			mu.Unlock()
			if !first {
				return
			}
			if id[0] == 'c' {
				cc.closedDone <- id
			} else {
				openLeft.done()
			}
		}
	}

	// Handshake, then start the readers.
	for _, cc := range cs {
		if _, err := cc.c.Write(configLine()); err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	var readers sync.WaitGroup
	readErrs := make([]error, conns)
	for i, cc := range cs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			readErrs[i] = cc.read()
		}()
	}

	// Lay the open-loop streams out on the timeline, phase after phase.
	t0 := time.Now().Add(20 * time.Millisecond)
	type due struct {
		at   time.Time
		s    *stream
		line int
	}
	plans := make([][]due, conns)
	offset := time.Duration(0)
	n := 0
	for ph := range t.open {
		for _, a := range t.open[ph] {
			s := &stream{id: "o" + strconv.Itoa(n), hist: a.hist, phase: ph, start: t0.Add(offset + a.at)}
			r.streams = append(r.streams, s)
			for j := range a.hist.req {
				plans[n%conns] = append(plans[n%conns], due{at: s.start.Add(time.Duration(j) * lineGap), s: s, line: j})
			}
			n++
		}
		offset += t.windows[ph]
	}
	openEnd := t0.Add(offset)
	openLeft.add(n)
	for _, p := range plans {
		sort.Slice(p, func(a, b int) bool { return p[a].at.Before(p[b].at) })
	}

	var senders sync.WaitGroup
	for i, cc := range cs {
		senders.Add(1)
		go func() {
			defer senders.Done()
			buf := make([]byte, 0, 512)
			for _, d := range plans[i] {
				if wait := time.Until(d.at); wait > 0 {
					cc.bw.Flush()
					time.Sleep(wait)
				}
				late := time.Since(d.at)
				cc.lateness = append(cc.lateness, float64(late)/float64(time.Millisecond))
				cc.phaseOf = append(cc.phaseOf, d.s.phase)
				buf = d.s.hist.req[d.line].appendTo(buf[:0], d.s.id)
				cc.bw.Write(buf)
			}
			cc.bw.Flush()
		}()
	}
	senders.Wait()

	// Drain: the saturation phase starts only when every open-loop stream
	// has finished, so its load never inflates their latencies.
	select {
	case <-openLeft.zero:
	case <-time.After(time.Until(openEnd.Add(doneGrace))):
		r.connErr = fmt.Errorf("open-loop streams still running %v after their phases", doneGrace)
	}

	// Closed loop: inflight streams per connection, each sent back to back,
	// a new one as soon as one finishes.
	r.satStart = time.Now()
	r.satEnd = r.satStart.Add(t.windows[phaseSat])
	var closedMu sync.Mutex
	next := 0
	nextStream := func() *stream {
		closedMu.Lock()
		defer closedMu.Unlock()
		s := &stream{id: "c" + strconv.Itoa(next), hist: t.closed[next%len(t.closed)], phase: phaseSat, start: time.Now()}
		next++
		r.streams = append(r.streams, s)
		return s
	}
	for _, cc := range cs {
		senders.Add(1)
		go func() {
			defer senders.Done()
			buf := make([]byte, 0, 64<<10)
			send := func() {
				s := nextStream()
				buf = buf[:0]
				for _, tl := range s.hist.req {
					buf = tl.appendTo(buf, s.id)
				}
				cc.bw.Write(buf)
				cc.bw.Flush()
			}
			for k := 0; k < t.inflight; k++ {
				send()
			}
			outstanding := t.inflight
			deadline := time.NewTimer(time.Until(r.satEnd.Add(doneGrace)))
			defer deadline.Stop()
			for outstanding > 0 {
				select {
				case <-cc.closedDone:
					outstanding--
					if time.Now().Before(r.satEnd) {
						send()
						outstanding++
					}
				case <-deadline.C:
					return
				}
			}
		}()
	}
	senders.Wait()

	// Half-close: the server finishes what it has and closes; the readers
	// return at EOF.
	for _, cc := range cs {
		if tc, ok := cc.c.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}
	readDone := make(chan struct{})
	go func() {
		readers.Wait()
		close(readDone)
	}()
	select {
	case <-readDone:
	case <-time.After(doneGrace):
		// Closing the connections ends the readers.
	}
	for _, cc := range cs {
		cc.c.Close()
	}
	<-readDone

	byID := map[string]*stream{}
	for _, s := range r.streams {
		byID[s.id] = s
	}
	for i, cc := range cs {
		if readErrs[i] != nil && r.connErr == nil {
			r.connErr = readErrs[i]
		}
		for _, rc := range cc.log {
			_, id, ok := splitResponse(rc.line)
			if s := byID[id]; ok && s != nil {
				s.lines = append(s.lines, rc.line)
				s.times = append(s.times, rc.at)
			}
		}
		for k, l := range cc.lateness {
			r.lateness[cc.phaseOf[k]] = append(r.lateness[cc.phaseOf[k]], l)
		}
	}
	return r, nil
}

// configLine is the protocol handshake, the first line of every connection.
func configLine() []byte {
	js, _ := json.Marshal(serve.Request{Config: &serve.ClientConfig{Protocol: serve.ProtocolVersion}})
	return append(js, '\n')
}

// read logs every response line with its receipt time until EOF. A
// connection-level response (one naming no stream) ends the read; the
// streams it leaves without their done lines fail.
func (cc *clientConn) read() error {
	sc := bufio.NewScanner(cc.c)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	first := true
	for sc.Scan() {
		now := time.Now()
		raw := sc.Bytes()
		if first {
			first = false
			if !bytes.HasPrefix(raw, []byte(`{"config":`)) {
				return fmt.Errorf("handshake answered with %s", raw)
			}
			continue
		}
		kind, id, ok := splitResponse(raw)
		if !ok {
			return fmt.Errorf("connection-level response %s", raw)
		}
		cc.log = append(cc.log, received{at: now, line: bytes.Clone(raw)})
		if kind == "done" || kind == "error" {
			cc.terminal(id)
		}
	}
	return sc.Err()
}

// splitResponse reads the kind and stream id off a response line without
// decoding it: every stream-level line has the shape
// {"<kind>":{"stream":"<id>",...}.
func splitResponse(line []byte) (kind, id string, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"`))
	if !found {
		return "", "", false
	}
	k, rest, found := bytes.Cut(rest, []byte(`":{"stream":"`))
	if !found {
		return "", "", false
	}
	i, _, found := bytes.Cut(rest, []byte(`"`))
	if !found {
		return "", "", false
	}
	return string(k), string(i), true
}

// countdown closes zero when done has been called as often as add was told.
type countdown struct {
	mu   sync.Mutex
	n    int
	zero chan struct{}
}

func (c *countdown) add(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += n
	if c.n == 0 {
		close(c.zero)
	}
}

func (c *countdown) done() { c.add(-1) }

// failure compares the stream's response lines byte for byte with its
// reference lines and describes the first difference; "" means they match.
func (s *stream) failure() string {
	want := s.hist.resp
	for k, l := range s.lines {
		if kind, _, _ := splitResponse(l); kind == "error" {
			return "error line " + string(l)
		}
		if k >= len(want) || !want[k].equal(l, s.id) {
			return fmt.Sprintf("line %d differs from the reference: %s", k, l)
		}
	}
	if len(s.lines) < len(want) {
		return fmt.Sprintf("%d of %d response lines arrived (no done)", len(s.lines), len(want))
	}
	return ""
}

// doneAt is the receipt time of the stream's done line (the last line of a
// correct stream).
func (s *stream) doneAt() time.Time { return s.times[len(s.times)-1] }

// trafficStats are the measurements of one run.
type trafficStats struct {
	attempted, failed int
	firstFailure      string
	// lowVerdictMs: per verdict of a low-phase stream, receipt minus the due
	// time of the last event it judges.
	lowVerdictMs []float64
	// highCloseMs: per high-phase stream, done receipt minus close due.
	highCloseMs []float64
	// highWaitMs: per high-phase stream with verdicts, close due to first
	// verdict, minus the history's standalone replay time; highEmitMs: first
	// verdict to done.
	highWaitMs, highEmitMs []float64
	satVerdicts, satEvents int
	satSeconds             float64
}

// stats checks every stream and derives the phase measurements.
func (r *runResult) stats() trafficStats {
	var st trafficStats
	st.satSeconds = r.satEnd.Sub(r.satStart).Seconds()
	for _, s := range r.streams {
		st.attempted++
		if why := s.failure(); why != "" {
			st.failed++
			if st.firstFailure == "" {
				st.firstFailure = s.id + ": " + why
			}
			continue
		}
		h := s.hist
		closeDue := s.start.Add(h.closeDue())
		switch s.phase {
		case phaseLow:
			for k := range h.hist {
				st.lowVerdictMs = append(st.lowVerdictMs, ms(s.times[k+1].Sub(s.start.Add(h.verdictDue(k)))))
			}
		case phaseHigh:
			st.highCloseMs = append(st.highCloseMs, ms(s.doneAt().Sub(closeDue)))
			if h.verdicts > 0 {
				first := s.times[1]
				st.highWaitMs = append(st.highWaitMs, ms(first.Sub(closeDue)-h.replay))
				st.highEmitMs = append(st.highEmitMs, ms(s.doneAt().Sub(first)))
			}
		case phaseSat:
			for k, at := range s.times {
				if kind, _, _ := splitResponse(s.lines[k]); kind == "verdict" && !at.Before(r.satStart) && at.Before(r.satEnd) {
					st.satVerdicts++
				}
			}
			if d := s.doneAt(); !d.Before(r.satStart) && d.Before(r.satEnd) {
				st.satEvents += len(h.word)
			}
		}
	}
	if st.firstFailure == "" && r.connErr != nil {
		st.firstFailure = r.connErr.Error()
	}
	return st
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// satRate is the saturation phase's verdict lines per second.
func (st trafficStats) satRate() float64 { return float64(st.satVerdicts) / st.satSeconds }

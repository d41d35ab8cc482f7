// Package serve implements monitoring-as-a-service over the exported exp/
// surface: a long-running server that accepts recorded histories as NDJSON
// trace streams (the exp/trace Writer/Read line format inside a versioned
// request/response envelope), routes each stream through a sharded pool of
// exp/monitor sessions keyed by stream id, and streams the verdict events
// back incrementally as they are produced.
//
// The protocol is line-oriented in both directions; see envelope.go for the
// message set. encoding/json defines the line format, but the two lines that
// dominate the traffic — a history symbol in, a verdict or done line out —
// are parsed and written by hand (wire.go), to the same bytes and values. A
// connection's responses are flushed whenever its outbound queue runs empty,
// not once per line. Backpressure is bounded queues end to end: per-shard job
// queues (a burst of closed streams blocks the connections that sent them,
// not the server), per-connection outbound queues (a slow reader stalls only
// the shards serving its streams), and a per-stream event cap (a stream
// cannot buffer an unbounded history). Shutdown drains: in-flight runs
// finish and their verdicts are delivered before the server stops.
//
// Served verdict streams inherit the replay determinism contract: the same
// input stream yields byte-identical response lines, regardless of pool
// size or how the input was chunked, and re-running the recorded history
// through exp/monitor.Run reproduces exactly the served verdicts.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// Defaults for Config fields left zero.
const (
	// DefaultQueueDepth bounds each shard's pending-run queue.
	DefaultQueueDepth = 16
	// DefaultWriteDepth bounds each connection's outbound response queue.
	DefaultWriteDepth = 64
	// DefaultMaxStreamEvents bounds the history one stream may buffer.
	DefaultMaxStreamEvents = 1 << 20
)

// Config sizes a Server.
type Config struct {
	// Shards is the session-pool width: the number of worker goroutines,
	// each owning one exp/monitor.Session. Streams are keyed to shards by
	// stream id. Zero means GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's pending-run queue; zero means
	// DefaultQueueDepth.
	QueueDepth int
	// WriteDepth bounds each connection's outbound response queue; zero
	// means DefaultWriteDepth.
	WriteDepth int
	// MaxStreamEvents bounds the number of history events one stream may
	// buffer before it is failed; zero means DefaultMaxStreamEvents.
	MaxStreamEvents int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.WriteDepth <= 0 {
		c.WriteDepth = DefaultWriteDepth
	}
	if c.MaxStreamEvents <= 0 {
		c.MaxStreamEvents = DefaultMaxStreamEvents
	}
	return c
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("serve: server closed")

// Server accepts trace-stream connections and serves verdict streams. Create
// with New, run with Serve (TCP) and/or ServeConn (any byte stream), stop
// with Shutdown.
type Server struct {
	cfg  Config
	pool *pool

	mu        sync.Mutex
	closing   bool
	listeners map[net.Listener]struct{}
	conns     map[io.Closer]struct{}
	connWG    sync.WaitGroup
}

// New returns a running server (its session pool is live; connections can be
// served immediately). Stop it with Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:       cfg,
		pool:      newPool(cfg.Shards, cfg.QueueDepth),
		listeners: map[net.Listener]struct{}{},
		conns:     map[io.Closer]struct{}{},
	}
}

// Serve accepts connections on l until Shutdown, serving each on its own
// goroutine. It returns ErrServerClosed after Shutdown, or the Accept error
// that stopped it.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
			s.serveConn(c)
		}()
	}
}

// ServeConn serves one already-established connection (for example stdio or
// a test pipe) and returns when its input is exhausted and every response
// has been written. The returned error is the transport failure, if any;
// protocol errors are reported to the client in-band and return nil.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	s.connWG.Add(1)
	defer s.connWG.Done()
	return s.serveConn(rw)
}

func (s *Server) serveConn(rw io.ReadWriter) error {
	c := &conn{
		srv:      s,
		out:      make(chan Response, s.cfg.WriteDepth),
		streams:  map[string]*stream{},
		inflight: map[string]int{},
	}

	// The writer goroutine serializes all response lines — the reader's acks
	// and the shard workers' verdicts — and flushes whenever the queue runs
	// empty: a burst of lines leaves in as few writes as the buffer allows,
	// and no line waits while the queue is idle, so clients still see
	// verdicts as they are produced. On a transport error it keeps draining
	// (discarding) so no worker blocks on a dead connection.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(rw)
		var line []byte
		broken := false
		for resp := range c.out {
			if broken {
				continue
			}
			line = appendResponse(line[:0], resp)
			if _, err := bw.Write(line); err != nil {
				broken = true
				continue
			}
			if len(c.out) == 0 {
				if err := bw.Flush(); err != nil {
					broken = true
				}
			}
		}
	}()

	err := c.read(rw)
	c.jobs.Wait() // every enqueued run has delivered its responses
	close(c.out)
	<-writerDone
	if errors.Is(err, errConnFatal) {
		// Already reported to the client in-band; the transport is fine.
		return nil
	}
	return err
}

// Shutdown stops the server gracefully: it stops accepting, waits for every
// connection to finish (their in-flight runs drain and deliver), then stops
// the session pool. If ctx expires first, remaining connections are
// force-closed — their queued runs still drain, but undelivered responses
// are discarded — and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		lns = append(lns, l)
	}
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.pool.stop()
	return err
}

// conn is the per-connection state: the protocol reader's stream table, the
// shared outbound queue, and the count of queued or running jobs per stream
// id.
type conn struct {
	srv     *Server
	out     chan Response
	jobs    sync.WaitGroup
	streams map[string]*stream

	mu       sync.Mutex
	inflight map[string]int
}

// enqueue hands a job for stream id to its shard, counting it in flight
// until the worker is done with it.
func (c *conn) enqueue(id string, j *job) {
	c.mu.Lock()
	c.inflight[id]++
	c.mu.Unlock()
	c.jobs.Add(1)
	j.stream = id
	j.respond = func(resp Response) { c.out <- resp }
	j.done = func() {
		c.mu.Lock()
		if c.inflight[id]--; c.inflight[id] == 0 {
			delete(c.inflight, id)
		}
		c.mu.Unlock()
		c.jobs.Done()
	}
	c.srv.pool.shard(id) <- j
}

// send writes a response about stream id. While an earlier run of the id is
// still queued or running on its shard, the response goes through the same
// shard queue, so it leaves after that run's done: a client reusing an id
// can tell which run each line belongs to. Otherwise it is written at once.
func (c *conn) send(id string, resp Response) {
	c.mu.Lock()
	busy := c.inflight[id] > 0
	c.mu.Unlock()
	if busy {
		c.enqueue(id, &job{note: &resp})
		return
	}
	c.out <- resp
}

// stream is one open verdict stream: its monitor selection and the history
// collected so far under the trace-format discipline.
type stream struct {
	open   Open
	logic  monitor.Logic
	object trace.Object
	array  monitor.Array
	meta   *trace.Meta
	hist   trace.Word
	failed bool
}

// errConnFatal marks protocol failures that were already reported in-band.
var errConnFatal = errors.New("serve: connection-fatal protocol error")

// read runs the protocol state machine over the connection's input. It
// returns nil on EOF, errConnFatal after an in-band connection-level error,
// or the transport error.
func (c *conn) read(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, trace.ReadBufferSize), trace.ReadMaxLineBytes)
	line := 0
	configured := false
	var req Request // reused: no handler keeps a pointer into it
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		req = Request{}
		if err := decodeRequest(raw, &req); err != nil {
			return c.fatal(line, fmt.Sprintf("malformed request: %v", err))
		}
		kind, err := req.kind()
		if err != nil {
			return c.fatal(line, err.Error())
		}
		if !configured {
			if kind != "config" {
				return c.fatal(line, "first line must be the config handshake")
			}
			if req.Config.Protocol != ProtocolVersion {
				return c.fatal(line, fmt.Sprintf("protocol %q not supported (server speaks %s)", req.Config.Protocol, ProtocolVersion))
			}
			configured = true
			c.out <- Response{Config: &ServerConfig{Protocol: ProtocolVersion}}
			continue
		}
		switch kind {
		case "config":
			return c.fatal(line, "duplicate config handshake")
		case "open":
			c.handleOpen(line, req.Open)
		case "event":
			c.handleEvent(line, req.Event)
		case "close":
			c.handleClose(line, req.Close)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return c.fatal(line+1, fmt.Sprintf("line exceeds the %d-byte bound: %v", trace.ReadMaxLineBytes, err))
		}
		return err
	}
	return nil
}

// fatal reports a connection-level error in-band and stops the reader.
func (c *conn) fatal(line int, msg string) error {
	c.out <- Response{Error: &StreamError{Line: line, Msg: msg}}
	return errConnFatal
}

// fail reports a stream-level error and marks the stream dead: its further
// input is discarded (no error flood), its close is swallowed, and its id
// may be reopened.
func (c *conn) fail(id string, line int, msg string) {
	c.send(id, Response{Error: &StreamError{Stream: id, Line: line, Msg: msg}})
	c.streams[id] = &stream{failed: true}
}

func (c *conn) handleOpen(line int, o *Open) {
	if o.Stream == "" {
		c.out <- Response{Error: &StreamError{Line: line, Msg: "open without a stream id"}}
		return
	}
	if st, ok := c.streams[o.Stream]; ok && !st.failed {
		c.fail(o.Stream, line, fmt.Sprintf("stream %q is already open", o.Stream))
		return
	}
	logic, err := logicByName(o.Logic)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	object, err := objectByName(o.Object)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	array, err := arrayByName(o.Array)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	c.streams[o.Stream] = &stream{open: *o, logic: logic, object: object, array: array}
	c.send(o.Stream, Response{Opened: &Opened{Stream: o.Stream}})
}

func (c *conn) handleEvent(line int, ev *StreamEvent) {
	st, ok := c.streams[ev.Stream]
	if !ok {
		c.fail(ev.Stream, line, fmt.Sprintf("event for unopened stream %q", ev.Stream))
		return
	}
	if st.failed {
		return
	}
	switch ev.Kind {
	case trace.KindMeta:
		if st.meta != nil {
			c.fail(ev.Stream, line, "duplicate meta line (the stream already has its header)")
			return
		}
		if ev.Meta == nil {
			c.fail(ev.Stream, line, "meta line carries no meta object")
			return
		}
		if ev.Meta.N < 1 {
			c.fail(ev.Stream, line, fmt.Sprintf("meta n must be ≥ 1, got %d", ev.Meta.N))
			return
		}
		m := *ev.Meta
		st.meta = &m
	case trace.KindSym:
		if st.meta == nil {
			c.fail(ev.Stream, line, "symbol line before the stream's meta header")
			return
		}
		if len(st.hist) >= c.srv.cfg.MaxStreamEvents {
			c.fail(ev.Stream, line, fmt.Sprintf("stream exceeds the %d-event bound", c.srv.cfg.MaxStreamEvents))
			return
		}
		sym, err := trace.DecodeSymbol(ev.Event)
		if err != nil {
			c.fail(ev.Stream, line, err.Error())
			return
		}
		st.hist = append(st.hist, sym)
	case trace.KindVerdict:
		c.fail(ev.Stream, line, "verdict lines are server output, not stream input")
	default:
		c.fail(ev.Stream, line, fmt.Sprintf("unknown event kind %q", ev.Kind))
	}
}

func (c *conn) handleClose(line int, cl *CloseStream) {
	st, ok := c.streams[cl.Stream]
	if !ok {
		c.fail(cl.Stream, line, fmt.Sprintf("close for unopened stream %q", cl.Stream))
		delete(c.streams, cl.Stream)
		return
	}
	delete(c.streams, cl.Stream) // the id may be reopened; runs stay ordered per shard
	if st.failed {
		return
	}
	if st.meta == nil {
		c.send(cl.Stream, Response{Error: &StreamError{Stream: cl.Stream, Line: line, Msg: "stream closed without a meta header"}})
		return
	}
	c.enqueue(cl.Stream, &job{cfg: monitor.Config{
		N:        st.meta.N,
		Object:   st.object,
		Logic:    st.logic,
		History:  st.hist,
		Array:    st.array,
		MaxSteps: st.open.MaxSteps,
	}})
}

// logicByName maps the wire name to the monitor logic.
func logicByName(name string) (monitor.Logic, error) {
	switch name {
	case "lin":
		return monitor.LogicLin, nil
	case "sc":
		return monitor.LogicSC, nil
	case "wec":
		return monitor.LogicWEC, nil
	case "sec":
		return monitor.LogicSEC, nil
	case "ecledger":
		return monitor.LogicECLedger, nil
	}
	return 0, fmt.Errorf("unknown logic %q (want lin, sc, wec, sec or ecledger)", name)
}

// objectByName maps the wire name to a sequential specification. Empty is
// allowed (the counter and ledger logics carry their own specification).
func objectByName(name string) (trace.Object, error) {
	switch name {
	case "":
		return nil, nil
	case "register":
		return trace.Register(), nil
	case "counter":
		return trace.Counter(), nil
	case "queue":
		return trace.Queue(), nil
	case "stack":
		return trace.Stack(), nil
	case "ledger":
		return trace.Ledger(), nil
	case "consensus":
		return trace.Consensus(), nil
	}
	return nil, fmt.Errorf("unknown object %q (want register, counter, queue, stack, ledger or consensus)", name)
}

// arrayByName maps the wire name to an announcement-array kind.
func arrayByName(name string) (monitor.Array, error) {
	switch name {
	case "", "atomic":
		return monitor.ArrayAtomic, nil
	case "aadgms":
		return monitor.ArrayAADGMS, nil
	case "collect":
		return monitor.ArrayCollect, nil
	}
	return 0, fmt.Errorf("unknown array %q (want atomic, aadgms or collect)", name)
}

// Package serve implements monitoring-as-a-service over the exported exp/
// surface: a long-running server that accepts recorded histories as NDJSON
// trace streams (the exp/trace Writer/Read line format inside a versioned
// request/response envelope), replays each stream through an exp/monitor
// session while the stream's events arrive, and streams the verdict events
// back as they become final.
//
// The protocol is line-oriented in both directions; see envelope.go for the
// message set. encoding/json defines the line format, but the two lines that
// dominate the traffic — a history symbol in, a verdict or done line out —
// are parsed and written by hand (wire.go), to the same bytes and values.
// Neither makes a heap object per line: a symbol line decodes straight into
// its stream's replay, verdicts travel to the writer by value, and the
// server pools the lines a replay sends at close and the connections' read
// buffers. A connection's responses are flushed whenever its outbound queue
// runs empty, not once per line.
//
// A connection's reader runs its streams' replays itself, so a connection's
// streams are replayed one at a time, on one CPU. Each stream's replay
// starts at its first symbol, as an exp/monitor.Feed on a pooled Session.
// The reader pushes each symbol into it as it reads it, and the replay runs
// until it needs an event that has not arrived. It then stays suspended,
// holding its session's process coroutines and no goroutine of its own,
// until the next push; close ends its input. The replay makes the batch
// replay's scheduling choices whatever the pacing, so a stream's lines keep
// the batch order — every verdict in (proc, index) order, then done.
// Process 0's verdicts leave as the replay reports them; a later process's
// stream is final only once it exits, at the end of the history, so its
// lines and done leave at close. The reader queues every line in input
// order, so the lines of a reopened id follow the earlier run's.
//
// Backpressure is bounded queues end to end: a per-connection outbound
// queue (a slow client stalls its own connection's reader, and so its
// replays, and no other connection) and a per-stream event cap, and a
// stream's meta n is bounded by MaxProcs. A client must therefore read
// responses while it is still sending: the reader queues process 0's
// verdicts as they are reported, and once the queue and the transport's
// buffers are full it takes no more input until the client reads. Shutdown
// drains: each connection's reader finishes its input, closed streams'
// verdicts are delivered, and then the server stops.
//
// Served verdict streams inherit the replay determinism contract: the same
// input stream yields byte-identical response lines, regardless of how the
// input was paced or chunked, and re-running the recorded history through
// exp/monitor.Run reproduces exactly the served verdicts, or the served
// error of a malformed history: each stream is replayed once, and its
// replay checks each event as it arrives, as Run does. Streams that fail
// or are abandoned keep the lines already sent: a stream that turns out
// malformed after some of its verdicts left gets its error line after them,
// and a stream still open when its connection's input ends gets nothing
// more.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// Defaults for Config fields left zero.
const (
	// DefaultWriteDepth bounds each connection's outbound response queue.
	DefaultWriteDepth = 64
	// DefaultMaxStreamEvents bounds the history one stream may send.
	DefaultMaxStreamEvents = 1 << 20
)

// MaxProcs bounds a stream's meta n, the number of monitor processes its
// replay runs. A replay's cost grows faster than linearly in n, so one
// stream naming a huge n could exhaust the server's memory and take every
// other stream with it; the module's own tools use at most 12.
const MaxProcs = 256

// maxIdleSessions bounds the sessions a server keeps for later replays once
// their streams are done; a burst of concurrent streams beyond it closes the
// extra sessions instead of holding them.
const maxIdleSessions = 64

// maxPooledLines bounds the capacity, in bytes, of the line buffers a
// server keeps for the lines replays encode at close.
const maxPooledLines = 64 << 10

// Config sizes a Server.
type Config struct {
	// WriteDepth bounds each connection's outbound response queue; zero
	// means DefaultWriteDepth.
	WriteDepth int
	// MaxStreamEvents bounds the number of history events one stream may
	// send before it is failed; zero means DefaultMaxStreamEvents.
	MaxStreamEvents int
}

func (c Config) withDefaults() Config {
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
	cfg Config

	mu        sync.Mutex
	closing   bool
	listeners map[net.Listener]struct{}
	conns     map[io.Closer]struct{}
	connWG    sync.WaitGroup
	// idle holds sessions whose replays are done, for later replays to
	// reuse warm; Shutdown closes them.
	idle []*monitor.Session

	// lines holds empty line buffers (*[]byte), and reads the connections'
	// initial read buffers (*[]byte).
	lines sync.Pool
	reads sync.Pool
}

// New returns a server ready to serve connections. Stop it with Shutdown.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg.withDefaults(),
		listeners: map[net.Listener]struct{}{},
		conns:     map[io.Closer]struct{}{},
	}
}

// session takes an idle session, or a new one when none is idle.
func (s *Server) session() *monitor.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.idle); n > 0 {
		sess := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return sess
	}
	return monitor.NewSession()
}

// release returns a session whose replay is done or dropped. A closing
// server, or one already holding maxIdleSessions, closes it instead: an idle
// session keeps its parked process coroutines.
func (s *Server) release(sess *monitor.Session) {
	s.mu.Lock()
	if !s.closing && len(s.idle) < maxIdleSessions {
		s.idle = append(s.idle, sess)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	sess.Close()
}

// lineBuf takes an empty line buffer.
func (s *Server) lineBuf() *[]byte {
	if b, ok := s.lines.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// releaseLines pools a line buffer once its lines are written; one above
// maxPooledLines is dropped.
func (s *Server) releaseLines(b *[]byte) {
	if cap(*b) > maxPooledLines {
		return
	}
	*b = (*b)[:0]
	s.lines.Put(b)
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
		srv:     s,
		out:     make(chan outLine, s.cfg.WriteDepth),
		streams: map[string]*stream{},
	}

	// The writer goroutine writes the reader's lines in queue order and
	// flushes whenever the queue runs empty: a burst of lines leaves in as
	// few writes as the buffer allows, and no line waits while the queue is
	// idle, so clients see verdicts as they are produced. On a transport
	// error it keeps draining (discarding) so the reader never blocks on a
	// dead connection.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(rw)
		var line []byte
		broken := false
		for l := range c.out {
			if !broken {
				var data []byte
				switch {
				case l.batch != nil:
					data = *l.batch
				case l.resp != (Response{}):
					line = appendResponse(line[:0], l.resp)
					data = line
				default:
					line = appendVerdict(line[:0], l.verdict)
					data = line
				}
				if _, err := bw.Write(data); err != nil {
					broken = true
				} else if len(c.out) == 0 {
					broken = bw.Flush() != nil
				}
			}
			if l.batch != nil {
				s.releaseLines(l.batch)
			}
		}
	}()

	err := c.read(rw)
	// Streams still open have no more input: their replays are dropped and
	// send nothing more.
	for _, st := range c.streams {
		c.drop(st)
	}
	close(c.out)
	<-writerDone
	if errors.Is(err, errConnFatal) {
		// Already reported to the client in-band; the transport is fine.
		return nil
	}
	return err
}

// Shutdown stops the server gracefully: it stops accepting, waits for every
// connection to finish (their readers take the rest of their input, and
// closed streams' verdicts are delivered), then closes the idle sessions. If
// ctx expires first, remaining connections are force-closed — their
// undelivered responses are discarded — and ctx's error is returned.
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
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, sess := range idle {
		sess.Close()
	}
	return err
}

// conn is the per-connection state: the protocol reader's stream table and
// the outbound queue.
type conn struct {
	srv     *Server
	out     chan outLine
	streams map[string]*stream // the open streams by id
}

// outLine is one element of a connection's outbound queue, passed by value:
// a batch of lines a replay encoded at its close, a response, or else a
// verdict.
type outLine struct {
	batch   *[]byte // from Server.lineBuf; the writer pools it again
	resp    Response
	verdict VerdictEvent
}

// stream is one opening of a stream id: its monitor selection and, from its
// first symbol (or its close, if it has none), its replay.
type stream struct {
	id     string
	open   Open
	logic  monitor.Logic
	object trace.Object
	array  monitor.Array
	meta   *trace.Meta
	failed bool
	events int // symbols received

	sess *monitor.Session
	feed *monitor.Feed
}

// start opens st's replay on a pooled session.
func (c *conn) start(st *stream) {
	st.sess = c.srv.session()
	st.feed = st.sess.Open(monitor.Config{
		N:        st.meta.N,
		Object:   st.object,
		Logic:    st.logic,
		Array:    st.array,
		MaxSteps: st.open.MaxSteps,
	}, func(proc, index int, v monitor.Verdict, step, hist int) {
		if proc == 0 {
			c.out <- outLine{verdict: VerdictEvent{
				Stream: st.id, Proc: proc, Index: index, Verdict: v.String(), Step: step, Hist: hist,
			}}
		}
	})
}

// drop ends st's replay, if it has one, without finishing it: its session
// goes back to the server, and the stream sends nothing more.
func (c *conn) drop(st *stream) {
	if st.sess != nil {
		c.srv.release(st.sess)
		st.sess, st.feed = nil, nil
	}
}

// finish closes st's replay and sends its remaining lines: every verdict
// after process 0's in (proc, index) order, then the done summary — a
// deterministic byte sequence for a given input. A replay cut by the
// stream's MaxSteps still delivers its partial verdicts, flagged Truncated;
// any other replay error becomes a stream-level error line, the one
// exp/monitor.Run gives for the history, which names its first bad event.
func (c *conn) finish(st *stream) {
	res, err := st.feed.Close()
	defer c.drop(st)
	truncated := false
	if err != nil {
		if !errors.Is(err, monitor.ErrTruncated) || res == nil {
			c.out <- outLine{resp: Response{Error: &StreamError{Stream: st.id, Msg: err.Error()}}}
			return
		}
		truncated = true
	}
	// The lines left at close leave as one batch.
	buf := c.srv.lineBuf()
	b := *buf
	verdicts, no := 0, 0
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			verdicts++
			if v == monitor.No {
				no++
			}
			if p > 0 {
				b = appendVerdict(b, VerdictEvent{
					Stream: st.id, Proc: p, Index: k, Verdict: v.String(), Step: res.StepAt[p][k], Hist: res.HistAt[p][k],
				})
			}
		}
	}
	*buf = appendResponse(b, Response{Done: &Done{
		Stream:    st.id,
		Events:    len(res.History),
		Steps:     res.Steps,
		Verdicts:  verdicts,
		NO:        no,
		Truncated: truncated,
	}})
	c.out <- outLine{batch: buf}
}

// errConnFatal marks protocol failures that were already reported in-band.
var errConnFatal = errors.New("serve: connection-fatal protocol error")

// read runs the protocol state machine over the connection's input. It
// returns nil on EOF, errConnFatal after an in-band connection-level error,
// or the transport error.
func (c *conn) read(r io.Reader) error {
	buf, ok := c.srv.reads.Get().(*[]byte)
	if !ok {
		b := make([]byte, 0, trace.ReadBufferSize)
		buf = &b
	}
	// No line outlives the loop: whatever the reader keeps, it copies.
	defer c.srv.reads.Put(buf)
	sc := bufio.NewScanner(r)
	sc.Buffer(*buf, trace.ReadMaxLineBytes)
	line := 0
	configured := false
	var req Request // reused: no handler keeps a pointer into it
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if configured && c.pushSymbol(raw) {
			continue
		}
		req = Request{}
		if err := json.Unmarshal(raw, &req); err != nil {
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
			c.out <- outLine{resp: Response{Config: &ServerConfig{Protocol: ProtocolVersion}}}
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
	c.out <- outLine{resp: Response{Error: &StreamError{Line: line, Msg: msg}}}
	return errConnFatal
}

// fail reports a stream-level error and marks the stream dead: its replay,
// if any, is dropped and sends nothing more; its further input is discarded
// (no error flood), its close is swallowed, and its id may be reopened. The
// error line follows every line the replay has sent.
func (c *conn) fail(id string, line int, msg string) {
	if st := c.streams[id]; st != nil {
		c.drop(st)
	}
	c.out <- outLine{resp: Response{Error: &StreamError{Stream: id, Line: line, Msg: msg}}}
	c.streams[id] = &stream{failed: true}
}

func (c *conn) handleOpen(line int, o *Open) {
	if o.Stream == "" {
		c.out <- outLine{resp: Response{Error: &StreamError{Line: line, Msg: "open without a stream id"}}}
		return
	}
	if st, ok := c.streams[o.Stream]; ok && !st.failed {
		c.fail(o.Stream, line, fmt.Sprintf("stream %q is already open", o.Stream))
		return
	}
	logic, err := monitor.ParseLogic(o.Logic)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	object, err := objectByName(o.Object)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	array, err := monitor.ParseArray(o.Array)
	if err != nil {
		c.fail(o.Stream, line, err.Error())
		return
	}
	c.streams[o.Stream] = &stream{id: o.Stream, open: *o, logic: logic, object: object, array: array}
	c.out <- outLine{resp: Response{Opened: &Opened{Stream: o.Stream}}}
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
		if ev.Meta.N > MaxProcs {
			c.fail(ev.Stream, line, fmt.Sprintf("meta n must be ≤ %d, got %d", MaxProcs, ev.Meta.N))
			return
		}
		m := *ev.Meta
		st.meta = &m
	case trace.KindSym:
		if st.meta == nil {
			c.fail(ev.Stream, line, "symbol line before the stream's meta header")
			return
		}
		if st.events >= c.srv.cfg.MaxStreamEvents {
			c.fail(ev.Stream, line, fmt.Sprintf("stream exceeds the %d-event bound", c.srv.cfg.MaxStreamEvents))
			return
		}
		sym, err := trace.DecodeSymbol(ev.Event)
		if err != nil {
			c.fail(ev.Stream, line, err.Error())
			return
		}
		c.symbol(st, sym)
	case trace.KindVerdict:
		c.fail(ev.Stream, line, "verdict lines are server output, not stream input")
	default:
		c.fail(ev.Stream, line, fmt.Sprintf("unknown event kind %q", ev.Kind))
	}
}

// pushSymbol pushes a canonical symbol line straight into its stream's
// replay, and reports whether it did. It declines the line unless the
// stream is open, live, has its meta header and is under its event cap:
// such a line is decoded whole, and handleEvent gives it its error.
func (c *conn) pushSymbol(raw []byte) bool {
	id, sym, ok := decodeSymbol(raw)
	if !ok {
		return false
	}
	st := c.streams[string(id)]
	if st == nil || st.failed || st.meta == nil || st.events >= c.srv.cfg.MaxStreamEvents {
		return false
	}
	c.symbol(st, sym)
	return true
}

// symbol pushes sym into st's replay, starting the replay at the stream's
// first symbol.
func (c *conn) symbol(st *stream, sym trace.Symbol) {
	if st.feed == nil {
		c.start(st)
	}
	st.events++
	st.feed.Push(sym)
}

func (c *conn) handleClose(line int, cl *CloseStream) {
	st, ok := c.streams[cl.Stream]
	if !ok {
		c.fail(cl.Stream, line, fmt.Sprintf("close for unopened stream %q", cl.Stream))
		delete(c.streams, cl.Stream)
		return
	}
	delete(c.streams, cl.Stream) // the id may be reopened
	if st.failed {
		return
	}
	if st.meta == nil {
		c.out <- outLine{resp: Response{Error: &StreamError{Stream: cl.Stream, Line: line, Msg: "stream closed without a meta header"}}}
		return
	}
	if st.feed == nil {
		c.start(st)
	}
	c.finish(st)
}

// objects are the sequential specifications a stream may name, by Name().
var objects = []trace.Object{trace.Register(), trace.Counter(), trace.Queue(), trace.Stack(), trace.Ledger(), trace.Consensus()}

// ObjectNames lists the names an open's object may take, in table order.
func ObjectNames() []string {
	names := make([]string, len(objects))
	for i, obj := range objects {
		names[i] = obj.Name()
	}
	return names
}

// objectByName returns the specification of objects named name. Empty is
// allowed (the counter and ledger logics carry their own specification).
func objectByName(name string) (trace.Object, error) {
	if name == "" {
		return nil, nil
	}
	for _, obj := range objects {
		if obj.Name() == name {
			return obj, nil
		}
	}
	names := ObjectNames()
	last := len(names) - 1
	return nil, fmt.Errorf("unknown object %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

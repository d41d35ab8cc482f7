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
// Neither makes a heap object per line: a symbol line decodes straight onto
// its stream's history, verdicts travel to the writer by value, and the
// server pools history buffers, the lines a replay sends at close and the
// connections' read buffers. A connection's responses are flushed whenever
// its outbound queue runs empty, not once per line.
//
// Each stream's replay starts at its first symbol, on a goroutine holding a
// pooled exp/monitor.Session, and blocks whenever it has consumed every
// event received so far; close ends its input. The replay makes the batch
// replay's scheduling choices whatever the pacing, so a stream's lines keep
// the batch order — every verdict in (proc, index) order, then done — and a
// line leaves as soon as every line before it is final. Process 0's
// verdicts therefore leave as the replay reports them; a later process's
// stream is final only once it exits, at the end of the history, so its
// lines and done leave at close.
//
// Backpressure is bounded queues end to end: per-connection outbound queues
// (a slow reader stalls only the replays of its own streams) and a
// per-stream event cap (a stream cannot buffer an unbounded history), and a
// stream's meta n is bounded by MaxProcs. Shutdown drains: closed streams'
// replays finish and their verdicts are delivered before the server stops.
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
	// DefaultMaxStreamEvents bounds the history one stream may buffer.
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

// maxPooledHist bounds the capacity, in symbols, of the history buffers a
// server keeps for later streams: a buffer one long stream grew past it is
// left to the garbage collector, so a 2²⁰-event stream cannot pin about
// 48 MB for the server's lifetime.
const maxPooledHist = 4096

// maxPooledLines bounds the capacity, in bytes, of the line buffers a
// server keeps for the lines replays encode at close.
const maxPooledLines = 64 << 10

// Config sizes a Server.
type Config struct {
	// WriteDepth bounds each connection's outbound response queue; zero
	// means DefaultWriteDepth.
	WriteDepth int
	// MaxStreamEvents bounds the number of history events one stream may
	// buffer before it is failed; zero means DefaultMaxStreamEvents.
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

	// hists holds empty history buffers (*trace.Word), zeroed up to their
	// capacity; lines holds empty line buffers (*[]byte), and reads the
	// connections' initial read buffers (*[]byte).
	hists sync.Pool
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

// release returns a session whose replay is done. A closing server, or one
// already holding maxIdleSessions, closes it instead: an idle session keeps
// its parked process coroutines.
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

// history takes an empty history buffer, or nil when none is pooled.
func (s *Server) history() trace.Word {
	if h, ok := s.hists.Get().(*trace.Word); ok {
		return *h
	}
	return nil
}

// recycle pools a history buffer nothing reads any more, cleared so that it
// holds no symbol's strings and values alive. One above maxPooledHist is
// dropped.
func (s *Server) recycle(h trace.Word) {
	if cap(h) == 0 || cap(h) > maxPooledHist {
		return
	}
	clear(h)
	h = h[:0]
	s.hists.Put(&h)
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
		tails:   map[string]chan struct{}{},
	}

	// The writer goroutine serializes all response lines — the reader's acks
	// and the replays' verdicts — and flushes whenever the queue runs empty:
	// a burst of lines leaves in as few writes as the buffer allows, and no
	// line waits while the queue is idle, so clients see verdicts as they
	// are produced. On a transport error it keeps draining (discarding) so
	// no replay blocks on a dead connection.
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
	// Streams still open have no more input: their replays end at once and
	// send nothing more. Closed streams' replays finish and deliver.
	for _, st := range c.streams {
		if st.running {
			st.end(true)
		}
	}
	c.pending.Wait()
	close(c.out)
	<-writerDone
	if errors.Is(err, errConnFatal) {
		// Already reported to the client in-band; the transport is fine.
		return nil
	}
	return err
}

// Shutdown stops the server gracefully: it stops accepting, waits for every
// connection to finish (their closed streams' replays drain and deliver),
// then closes the idle sessions. If ctx expires first, remaining
// connections are force-closed — their closed streams' replays still
// finish, but undelivered responses are discarded — and ctx's error is
// returned.
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

// conn is the per-connection state: the protocol reader's stream table, the
// shared outbound queue, and per stream id the line that must leave before
// the id's next one.
type conn struct {
	srv *Server
	out chan outLine
	// pending counts the replays and deferred lines not yet delivered.
	pending sync.WaitGroup
	streams map[string]*stream // reader-owned: the open streams by id

	mu sync.Mutex
	// tails maps a stream id to a channel closed once every line queued
	// for the id so far has left; ids with nothing queued have no entry.
	tails map[string]chan struct{}
}

// outLine is one element of a connection's outbound queue, passed by value:
// a batch of lines a replay encoded at its close, a response, or else a
// verdict.
type outLine struct {
	batch   *[]byte // from Server.lineBuf; the writer pools it again
	resp    Response
	verdict VerdictEvent
}

// send writes a line about stream id. While an earlier line of the id is
// still queued — an earlier run's replay is still sending — the line waits
// behind it on its own goroutine, so a client reusing an id can tell which
// run each line belongs to. Otherwise it is written at once.
func (c *conn) send(id string, resp Response) {
	c.mu.Lock()
	prev := c.tails[id]
	if prev == nil {
		c.mu.Unlock()
		c.out <- outLine{resp: resp}
		return
	}
	done := make(chan struct{})
	c.tails[id] = done
	c.mu.Unlock()
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		<-prev
		c.out <- outLine{resp: resp}
		c.settle(id, done)
	}()
}

// settle marks the id's line or run whose queue slot is done as delivered.
func (c *conn) settle(id string, done chan struct{}) {
	c.mu.Lock()
	if c.tails[id] == done {
		delete(c.tails, id)
	}
	c.mu.Unlock()
	close(done)
}

// start launches st's replay, queued behind every line of its id sent so
// far.
func (c *conn) start(st *stream) {
	st.running = true
	st.hist = c.srv.history()
	st.done = make(chan struct{})
	c.mu.Lock()
	st.turn = c.tails[st.id]
	c.tails[st.id] = st.done
	c.mu.Unlock()
	c.pending.Add(1)
	go c.replay(st)
}

// replay runs st's replay as its events arrive and sends its lines: every
// verdict in (proc, index) order, then the done summary — a deterministic
// byte sequence for a given input. Process 0's verdicts leave as they are
// reported; the rest follow once the history has ended. A replay cut by the
// stream's MaxSteps still delivers its partial verdicts, flagged Truncated;
// any other replay error becomes a stream-level error line at close.
func (c *conn) replay(st *stream) {
	defer c.pending.Done()
	defer func() {
		st.await()
		c.settle(st.id, st.done)
	}()
	defer func() { c.srv.recycle(st.detach()) }()
	sess := c.srv.session()
	defer c.srv.release(sess)

	cfg := monitor.Config{
		N:        st.meta.N,
		Object:   st.object,
		Logic:    st.logic,
		Array:    st.array,
		MaxSteps: st.open.MaxSteps,
	}
	res, err := sess.Stream(cfg, st.next, func(proc, index int, v monitor.Verdict, step, hist int) {
		if proc == 0 {
			c.emit(st, outLine{verdict: VerdictEvent{
				Stream: st.id, Proc: proc, Index: index, Verdict: v.String(), Step: step, Hist: hist,
			}})
		}
	})
	truncated := false
	if err != nil {
		if !errors.Is(err, monitor.ErrTruncated) || res == nil {
			// The error line leaves at the end of the input, whatever the
			// pacing. It is Stream's, which names the history's first bad
			// event, as Run does.
			if !st.wait() {
				return
			}
			c.emit(st, outLine{resp: Response{Error: &StreamError{Stream: st.id, Msg: err.Error()}}})
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
	c.emit(st, outLine{batch: buf})
}

// emit sends one of st's lines from its replay, once every earlier line of
// the id has left; an abandoned stream's lines are dropped.
func (c *conn) emit(st *stream, l outLine) {
	st.await()
	if st.abandoned() {
		if l.batch != nil {
			c.srv.releaseLines(l.batch)
		}
		return
	}
	c.out <- l
}

// stream is one opening of a stream id: its monitor selection and the
// history received so far under the trace-format discipline. From its first
// symbol (or its close, if it has none) a replay goroutine consumes the
// history as it grows.
type stream struct {
	id      string
	open    Open
	logic   monitor.Logic
	object  trace.Object
	array   monitor.Array
	meta    *trace.Meta
	failed  bool
	running bool // the replay has started

	// turn is closed once every earlier line of the id has left (nil: none
	// was pending when the replay started); done is closed once the
	// replay's own lines have. waited is replay-owned: turn has closed.
	turn   <-chan struct{}
	done   chan struct{}
	waited bool

	// Shared between the reader, which appends and ends, and the replay,
	// which consumes.
	mu    sync.Mutex
	more  *sync.Cond // signalled on every append and at the end
	hist  trace.Word // every symbol received, in order: a pooled buffer from start to detach
	read  int        // how many of hist the replay has taken
	ended bool       // no more input: the stream closed, failed or was cut off
	quiet bool       // the stream failed or was abandoned: send nothing more
}

func newStream(id string) *stream {
	st := &stream{id: id}
	st.more = sync.NewCond(&st.mu)
	return st
}

// push appends a received symbol, waking the replay if it waits for one.
func (st *stream) push(sym trace.Symbol) {
	st.mu.Lock()
	st.hist = append(st.hist, sym)
	st.mu.Unlock()
	st.more.Signal()
}

// end ends the stream's input; quiet also drops every line the replay has
// not sent yet.
func (st *stream) end(quiet bool) {
	st.mu.Lock()
	st.ended = true
	st.quiet = st.quiet || quiet
	st.mu.Unlock()
	st.more.Signal()
}

// next is the replay's event supply: it blocks until a symbol the replay
// has not taken arrives, and reports false once the input has ended — at
// once, buffered symbols or not, for an abandoned stream.
func (st *stream) next() (trace.Symbol, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.read == len(st.hist) && !st.ended {
		st.more.Wait()
	}
	if st.read == len(st.hist) || st.quiet {
		return trace.Symbol{}, false
	}
	sym := st.hist[st.read]
	st.read++
	return sym, true
}

// wait blocks until the input has ended and reports whether the stream's
// lines are still wanted.
func (st *stream) wait() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.ended {
		st.more.Wait()
	}
	return !st.quiet
}

// detach takes the history buffer from the stream once the replay is done
// with it. It waits for the input to end, after which the reader appends
// nothing more.
func (st *stream) detach() trace.Word {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.ended {
		st.more.Wait()
	}
	h := st.hist
	st.hist = nil
	return h
}

// abandoned reports whether the stream's remaining lines are dropped.
func (st *stream) abandoned() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.quiet
}

// await blocks the replay until every earlier line of the id has left.
func (st *stream) await() {
	if !st.waited && st.turn != nil {
		<-st.turn
	}
	st.waited = true
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
// if running, ends its input and sends nothing more; its further input is
// discarded (no error flood), its close is swallowed, and its id may be
// reopened. The error line follows every line the replay has sent.
func (c *conn) fail(id string, line int, msg string) {
	if st := c.streams[id]; st != nil && st.running {
		st.end(true)
	}
	c.send(id, Response{Error: &StreamError{Stream: id, Line: line, Msg: msg}})
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
	st := newStream(o.Stream)
	st.open, st.logic, st.object, st.array = *o, logic, object, array
	c.streams[o.Stream] = st
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
		if len(st.hist) >= c.srv.cfg.MaxStreamEvents {
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

// pushSymbol takes a canonical symbol line straight onto its stream's
// history, and reports whether it did. It declines the line unless the
// stream is open, live, has its meta header and is under its event cap:
// such a line is decoded whole, and handleEvent gives it its error.
func (c *conn) pushSymbol(raw []byte) bool {
	id, sym, ok := decodeSymbol(raw)
	if !ok {
		return false
	}
	st := c.streams[string(id)]
	if st == nil || st.failed || st.meta == nil || len(st.hist) >= c.srv.cfg.MaxStreamEvents {
		return false
	}
	c.symbol(st, sym)
	return true
}

// symbol appends sym to st's history, starting the replay at its first
// symbol.
func (c *conn) symbol(st *stream, sym trace.Symbol) {
	if !st.running {
		c.start(st)
	}
	st.push(sym)
}

func (c *conn) handleClose(line int, cl *CloseStream) {
	st, ok := c.streams[cl.Stream]
	if !ok {
		c.fail(cl.Stream, line, fmt.Sprintf("close for unopened stream %q", cl.Stream))
		delete(c.streams, cl.Stream)
		return
	}
	delete(c.streams, cl.Stream) // the id may be reopened; its lines stay ordered
	if st.failed {
		return
	}
	if st.meta == nil {
		c.send(cl.Stream, Response{Error: &StreamError{Stream: cl.Stream, Line: line, Msg: "stream closed without a meta header"}})
		return
	}
	if !st.running {
		c.start(st)
	}
	st.end(false)
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

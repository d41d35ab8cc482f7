// Command drvserve is the monitoring-as-a-service front end: a long-running
// server that accepts recorded histories as NDJSON trace streams (the
// exp/trace line format inside the internal/serve request envelope), replays
// each stream through a monitor session while its events arrive, and streams
// the verdict events back as they become final: process 0's verdicts as the
// replay reports them, the other processes' verdicts and the done summary
// once the stream closes.
//
// Three modes, exactly one of which must be selected:
//
//	drvserve -addr HOST:PORT
//	    Serve TCP until SIGINT/SIGTERM, then drain gracefully: closed
//	    streams' replays finish and deliver their verdicts before exit.
//
//	drvserve -stdio
//	    Serve exactly one connection on stdin/stdout and exit when the
//	    input is exhausted and every response has been written. This is
//	    the scriptable form: requests in, responses out, byte-for-byte
//	    reproducible for a given input.
//
//	drvserve -send HOST:PORT [-stream ID] [-logic L] [-object O]
//	         [-array A] [-max-steps K] trace.jsonl
//	    Client mode: read a trace file (e.g. written by extsut -trace or
//	    drvtrace), stream it to a drvserve server as one verdict stream,
//	    and copy the server's response lines to stdout verbatim as they
//	    arrive, while the request is still being sent.
//
// A negative -max-steps is a usage error: exit 2.
//
// Served verdict streams inherit the replay determinism contract: the same
// input yields byte-identical response lines however it is paced or
// chunked, and re-running the recorded history through exp/monitor.Run
// reproduces exactly the served verdicts. Each stream is replayed once, and
// its replay checks each event as it arrives: a malformed history's error
// line is Run's error for it, naming its first bad event.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

const usage = "usage: drvserve -addr HOST:PORT | drvserve -stdio | drvserve -send HOST:PORT trace.jsonl"

// options is the client-mode stream selection.
type options struct {
	stream   string
	logic    string
	object   string
	array    string
	maxSteps int
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drvserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "serve TCP on this address (e.g. :7077)")
	stdio := fs.Bool("stdio", false, "serve one connection on stdin/stdout")
	send := fs.String("send", "", "client mode: stream a trace file to a drvserve at this address")
	stream := fs.String("stream", "trace", "client: stream id")
	logic := fs.String("logic", "lin", "client: monitor logic ("+list(monitor.LogicLin, monitor.LogicECLedger)+")")
	object := fs.String("object", "queue", "client: sequential object ("+strings.Join(serve.ObjectNames(), ", ")+")")
	array := fs.String("array", "", "client: announcement array ("+list(adversary.ArrayAtomic, adversary.ArrayCollect)+")")
	maxSteps := fs.Int("max-steps", 0, "client: replay step bound (0 = monitor default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Zero selects the default; a negative bound would silently do the same.
	if *maxSteps < 0 {
		fmt.Fprintf(stderr, "drvserve: -max-steps %d: must be at least 0\n", *maxSteps)
		return 2
	}

	modes := 0
	for _, on := range []bool{*addr != "", *stdio, *send != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	var cfg serve.Config
	switch {
	case *stdio:
		return serveStdio(cfg, stdin, stdout, stderr)
	case *addr != "":
		return serveTCP(cfg, *addr, stderr)
	default:
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		o := options{stream: *stream, logic: *logic, object: *object, array: *array, maxSteps: *maxSteps}
		return sendTrace(*send, fs.Arg(0), o, stdout, stderr)
	}
}

// rw pairs the process's stdin and stdout into one connection.
type rw struct {
	io.Reader
	io.Writer
}

// list joins the names of first..last, a name table's entries in order.
func list[T interface {
	~uint8
	fmt.Stringer
}](first, last T) string {
	var names []string
	for v := first; v <= last; v++ {
		names = append(names, v.String())
	}
	return strings.Join(names, ", ")
}

// serveStdio serves exactly one connection on stdin/stdout.
func serveStdio(cfg serve.Config, stdin io.Reader, stdout, stderr io.Writer) int {
	srv := serve.New(cfg)
	err := srv.ServeConn(rw{stdin, stdout})
	if serr := srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(stderr, "drvserve:", err)
		return 1
	}
	return 0
}

// serveTCP serves connections on addr until SIGINT/SIGTERM, then drains. The
// signal handler is installed before the listener exists, so a signal sent as
// soon as the "listening on" line appears drains instead of killing the
// process.
func serveTCP(cfg serve.Config, addr string, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "drvserve:", err)
		return 1
	}
	fmt.Fprintf(stderr, "drvserve: listening on %s\n", ln.Addr())

	srv := serve.New(cfg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "drvserve: draining")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, "drvserve: shutdown:", err)
			return 1
		}
		<-serveErr
		return 0
	case err := <-serveErr:
		// The listener failed before any signal.
		fmt.Fprintln(stderr, "drvserve:", err)
		srv.Shutdown(context.Background())
		return 1
	}
}

// encodeRequest renders a parsed trace as one complete request: handshake,
// open, meta, every symbol, close. This is exactly what -send puts on the
// wire, so a captured request file replays it byte-for-byte.
func encodeRequest(w io.Writer, tr *trace.Trace, o options) error {
	enc := json.NewEncoder(w)
	msgs := []serve.Request{
		{Config: &serve.ClientConfig{Protocol: serve.ProtocolVersion}},
		{Open: &serve.Open{Stream: o.stream, Logic: o.logic, Object: o.object, Array: o.array, MaxSteps: o.maxSteps}},
		{Event: &serve.StreamEvent{Stream: o.stream, Event: trace.Event{Kind: trace.KindMeta, Meta: &tr.Meta}}},
	}
	for _, sym := range tr.Word {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			return err
		}
		msgs = append(msgs, serve.Request{Event: &serve.StreamEvent{Stream: o.stream, Event: ev}})
	}
	msgs = append(msgs, serve.Request{Close: &serve.CloseStream{Stream: o.stream}})
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

// dialRetry dials addr, retrying for a few seconds so a just-started server
// (e.g. backgrounded in a script) has time to bind.
func dialRetry(addr string) (net.Conn, error) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sendTrace streams one trace file to a server and copies the response lines
// to stdout as they arrive. The copy runs while the request is sent: once a
// server answers mid-stream, a long trace would otherwise fill both socket
// buffers, the server's writes blocking on a client that is not reading.
func sendTrace(addr, path string, o options, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "drvserve:", err)
		return 1
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "drvserve: parse %s: %v\n", path, err)
		return 1
	}

	conn, err := dialRetry(addr)
	if err != nil {
		fmt.Fprintln(stderr, "drvserve: dial:", err)
		return 1
	}
	defer conn.Close()
	recv := make(chan error, 1)
	go func() {
		_, err := io.Copy(stdout, conn)
		recv <- err
	}()
	// Buffered: the request leaves in a few large writes, not one per line.
	bw := bufio.NewWriter(conn)
	err = encodeRequest(bw, tr, o)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		if tc, ok := conn.(*net.TCPConn); ok {
			err = tc.CloseWrite()
		}
	}
	if err != nil {
		conn.Close() // ends the copy
		<-recv
		fmt.Fprintln(stderr, "drvserve: send:", err)
		return 1
	}
	if err := <-recv; err != nil {
		fmt.Fprintln(stderr, "drvserve: recv:", err)
		return 1
	}
	return 0
}

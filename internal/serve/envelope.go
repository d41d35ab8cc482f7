package serve

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
)

// ProtocolVersion identifies the serve wire protocol. A client's config line
// must name exactly this version; the envelope is versioned so the structs
// below can evolve without silently misreading old streams.
const ProtocolVersion = "v1.0.0"

// Request is one client→server line of the NDJSON protocol. Exactly one
// field is set per line (the govulncheck wire-layer shape): a config
// handshake first, then any interleaving of open/event/close lines for the
// connection's streams.
type Request struct {
	Config *ClientConfig `json:"config,omitempty"`
	Open   *Open         `json:"open,omitempty"`
	Event  *StreamEvent  `json:"event,omitempty"`
	Close  *CloseStream  `json:"close,omitempty"`
}

// kind names the set request field for error messages, and errors unless
// exactly one field is set.
func (r *Request) kind() (string, error) {
	n, kind := 0, ""
	if r.Config != nil {
		n, kind = n+1, "config"
	}
	if r.Open != nil {
		n, kind = n+1, "open"
	}
	if r.Event != nil {
		n, kind = n+1, "event"
	}
	if r.Close != nil {
		n, kind = n+1, "close"
	}
	if n != 1 {
		return "", fmt.Errorf("request line must set exactly one of config/open/event/close, got %d", n)
	}
	return kind, nil
}

// ClientConfig is the handshake: the first line of every connection.
type ClientConfig struct {
	// Protocol is the client's protocol version; it must equal
	// ProtocolVersion.
	Protocol string `json:"protocol"`
}

// Open starts a verdict stream: it names the stream and selects the monitor
// that will judge its history. The history itself follows as event lines in
// the exp/trace wire format (one meta header, then symbols). Stream ids may
// be reused once the stream is closed: every response about a reopened id
// follows the earlier run's last line.
type Open struct {
	// Stream is the client-chosen stream id; all later lines of this stream
	// name it.
	Stream string `json:"stream"`
	// Logic selects the monitor by its exp/monitor name (Logic.String, read
	// by monitor.ParseLogic): "lin", "sc", "wec", "sec" or "ecledger".
	Logic string `json:"logic"`
	// Object names the sequential specification for the lin and sc logics,
	// by its exp/trace Object.Name: "register", "counter", "queue", "stack",
	// "ledger" or "consensus".
	Object string `json:"object,omitempty"`
	// Array selects the announcement array by its exp/monitor name
	// (Array.String, read by monitor.ParseArray): "atomic" (the default,
	// also when empty), "aadgms" or "collect".
	Array string `json:"array,omitempty"`
	// MaxSteps bounds the replay; ≤ 0 means monitor.DefaultMaxSteps. A
	// replay cut by the bound is reported with Done.Truncated.
	MaxSteps int `json:"max_steps,omitempty"`
}

// StreamEvent is one line of a stream's history: a verbatim exp/trace event
// (the Writer/Read line format) plus the stream id. The trace discipline is
// enforced per stream: the first event must be the one meta line, symbols
// follow, and verdict-kind lines are rejected (verdicts are the server's
// output, not its input).
type StreamEvent struct {
	Stream string `json:"stream"`
	trace.Event
}

// CloseStream ends a stream's history and requests its verdicts.
type CloseStream struct {
	Stream string `json:"stream"`
}

// Response is one server→client line. Exactly one field is set per line: a
// config ack first, then per-stream opened/verdict/done/error lines. For a
// given stream the order is opened, then every verdict in (proc, index)
// order, then done — deterministic for a given input however it is paced,
// so a served verdict stream can be byte-compared against a replay of its
// recorded input. Process 0's verdicts leave while the stream is still open;
// the rest leave at close. A stream that fails keeps the verdict lines
// already sent and ends with its error line; one abandoned before close
// (the connection's input ended) ends with whatever was already sent.
type Response struct {
	Config  *ServerConfig `json:"config,omitempty"`
	Opened  *Opened       `json:"opened,omitempty"`
	Verdict *VerdictEvent `json:"verdict,omitempty"`
	Done    *Done         `json:"done,omitempty"`
	Error   *StreamError  `json:"error,omitempty"`
}

// ServerConfig acknowledges the handshake with the server's protocol
// version.
type ServerConfig struct {
	Protocol string `json:"protocol"`
}

// Opened acknowledges an Open.
type Opened struct {
	Stream string `json:"stream"`
}

// VerdictEvent is one reported verdict of one monitor process.
type VerdictEvent struct {
	Stream string `json:"stream"`
	// Proc is the monitor process reporting.
	Proc int `json:"proc"`
	// Index is the report's position in the process's verdict stream.
	Index int `json:"index"`
	// Verdict is the monitor package's rendering: YES, NO or MAYBE.
	Verdict string `json:"verdict"`
	// Step is the global scheduler step of the report.
	Step int `json:"step"`
	// Hist is the length of the exhibited history prefix the verdict judges.
	Hist int `json:"hist,omitempty"`
}

// Done closes a stream's verdict output with its summary.
type Done struct {
	Stream string `json:"stream"`
	// Events is the number of history symbols replayed.
	Events int `json:"events"`
	// Steps is the number of scheduler steps the replay took.
	Steps int `json:"steps"`
	// Verdicts is the total number of verdict lines emitted.
	Verdicts int `json:"verdicts"`
	// NO is the number of NO verdicts among them.
	NO int `json:"no"`
	// Truncated reports that MaxSteps cut the replay before the history was
	// fully exhibited: the verdicts above are honest but partial.
	Truncated bool `json:"truncated,omitempty"`
}

// StreamError reports a failure. With a Stream it is stream-level: that
// stream is dead (its later input is discarded) but the connection and its
// other streams continue. Without a Stream it is connection-level and the
// connection closes after the line. Line, when non-zero, is the request line
// that caused the failure.
type StreamError struct {
	Stream string `json:"stream,omitempty"`
	Line   int    `json:"line,omitempty"`
	Msg    string `json:"msg"`
}

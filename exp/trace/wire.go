package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Reader sizing for Read. Promoted to exported constants so embedders that
// stream oversized traces know (and can check against) the line-length bound
// instead of rediscovering a hard-coded scanner limit.
const (
	// ReadBufferSize is the initial scanner buffer capacity used by Read.
	ReadBufferSize = 64 * 1024
	// ReadMaxLineBytes is the maximum length of a single trace line Read
	// accepts before failing with bufio.ErrTooLong.
	ReadMaxLineBytes = 16 * 1024 * 1024
)

// EventKind tags a trace line.
type EventKind string

// The event kinds of the format. A trace starts with one Meta line, followed
// by Sym and Verdict lines in the order they occurred.
const (
	// KindMeta is the header line: process count, language, ground truth.
	KindMeta EventKind = "meta"
	// KindSym is one symbol of the input word x(E).
	KindSym EventKind = "sym"
	// KindVerdict is one reported verdict of a monitor process.
	KindVerdict EventKind = "verdict"
)

// Meta is the trace header.
type Meta struct {
	// N is the number of processes in the distributed alphabet.
	N int `json:"n"`
	// Lang names the distributed language the trace was generated against
	// (e.g. "WEC_COUNT"); empty for free-form traces.
	Lang string `json:"lang,omitempty"`
	// Member is the generator's ground-truth membership label for the ω-word
	// the trace is a prefix of. Nil when unknown.
	Member *bool `json:"member,omitempty"`
	// Seed is the generator seed, for reproducibility.
	Seed int64 `json:"seed,omitempty"`
	// Note is free-form provenance.
	Note string `json:"note,omitempty"`
}

// Event is one line of a trace file.
type Event struct {
	Kind EventKind `json:"kind"`

	// Meta fields (kind == "meta").
	Meta *Meta `json:"meta,omitempty"`

	// Symbol fields (kind == "sym").
	Proc int        `json:"proc,omitempty"`
	Sym  string     `json:"sym,omitempty"` // "inv" or "res"
	Op   string     `json:"op,omitempty"`
	Val  *WireValue `json:"val,omitempty"`

	// Verdict fields (kind == "verdict"). Proc is shared with symbols.
	Verdict string `json:"verdict,omitempty"`
	Step    int    `json:"step,omitempty"`
}

// WireValue is the JSON encoding of a Value: a type tag plus payload. The
// paper's alphabets are possibly infinite, so values are structured rather
// than enumerated; the tag set mirrors the Value implementations (Unit, Int,
// Rec, Seq).
type WireValue struct {
	T   string   `json:"t"`             // "unit" | "int" | "rec" | "seq"
	Int int64    `json:"int,omitempty"` // t == "int"
	Str string   `json:"str,omitempty"` // t == "rec"
	Seq []string `json:"seq,omitempty"` // t == "seq"
}

// encodeValue converts a Value to its trace representation. A nil value
// encodes to nil.
func encodeValue(v Value) (*WireValue, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case Unit:
		return &WireValue{T: "unit"}, nil
	case Int:
		return &WireValue{T: "int", Int: int64(x)}, nil
	case Rec:
		return &WireValue{T: "rec", Str: string(x)}, nil
	case Seq:
		// Canonical empty encoding: a nil Seq slice, so an empty sequence —
		// whether the Go value is Seq(nil) or Seq{} — always produces the
		// same WireValue representation and the same {"t":"seq"} line.
		if len(x) == 0 {
			return &WireValue{T: "seq"}, nil
		}
		seq := make([]string, len(x))
		for i, r := range x {
			seq[i] = string(r)
		}
		return &WireValue{T: "seq", Seq: seq}, nil
	default:
		return nil, fmt.Errorf("trace: cannot encode value of type %T", v)
	}
}

// decodeValue converts a trace representation back to a Value. A nil
// input decodes to nil.
func decodeValue(v *WireValue) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch v.T {
	case "unit":
		return Unit{}, nil
	case "int":
		return Int(v.Int), nil
	case "rec":
		return Rec(v.Str), nil
	case "seq":
		// All wire spellings of an empty sequence — {"t":"seq"},
		// {"t":"seq","seq":null}, {"t":"seq","seq":[]} — decode to the
		// canonical non-nil Seq{}, which re-encodes to {"t":"seq"}.
		seq := make(Seq, len(v.Seq))
		for i, s := range v.Seq {
			seq[i] = Rec(s)
		}
		return seq, nil
	default:
		return nil, fmt.Errorf("trace: unknown value tag %q", v.T)
	}
}

// EncodeSymbol converts a Symbol to a trace event.
func EncodeSymbol(s Symbol) (Event, error) {
	val, err := encodeValue(s.Val)
	if err != nil {
		return Event{}, err
	}
	kind := "inv"
	if s.Kind == Res {
		kind = "res"
	}
	return Event{Kind: KindSym, Proc: s.Proc, Sym: kind, Op: s.Op, Val: val}, nil
}

// DecodeSymbol converts a trace event back to a Symbol.
func DecodeSymbol(e Event) (Symbol, error) {
	if e.Kind != KindSym {
		return Symbol{}, fmt.Errorf("trace: event kind %q is not a symbol", e.Kind)
	}
	val, err := decodeValue(e.Val)
	if err != nil {
		return Symbol{}, err
	}
	var k Kind
	switch e.Sym {
	case "inv":
		k = Inv
	case "res":
		k = Res
	default:
		return Symbol{}, fmt.Errorf("trace: unknown symbol kind %q", e.Sym)
	}
	return Symbol{Proc: e.Proc, Kind: k, Op: e.Op, Val: val}, nil
}

// Writer streams trace events to an underlying writer, one JSON object per
// line.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w in a trace writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteMeta emits the header line. Call once, first.
func (w *Writer) WriteMeta(m Meta) error {
	return w.enc.Encode(Event{Kind: KindMeta, Meta: &m})
}

// WriteWord emits every symbol of a word in order, one line each.
func (w *Writer) WriteWord(ww Word) error {
	for _, s := range ww {
		e, err := EncodeSymbol(s)
		if err != nil {
			return err
		}
		if err := w.enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteVerdict emits one verdict report of process p at the given scheduler
// step. The verdict string is the monitor package's rendering (YES, NO,
// MAYBE).
func (w *Writer) WriteVerdict(p int, verdict string, step int) error {
	return w.enc.Encode(Event{Kind: KindVerdict, Proc: p, Verdict: verdict, Step: step})
}

// Flush writes buffered lines through to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Trace is a fully parsed trace file.
type Trace struct {
	Meta Meta
	// Word is the input word: all symbol events in order.
	Word Word
	// Verdicts holds verdict strings per process, in report order.
	Verdicts map[int][]string
	// Steps holds the scheduler step of each verdict, aligned with Verdicts.
	Steps map[int][]int
}

// ErrMissingMeta is wrapped by Read when a trace has no meta header line.
var ErrMissingMeta = errors.New("missing meta header line")

// Read parses a whole trace stream. The format is strict about its header:
// the first non-blank line must be the one meta line — a trace with no meta,
// a duplicate meta, or a meta in mid-stream is rejected with the offending
// line number rather than silently resolved last-meta-wins. A line longer
// than ReadMaxLineBytes fails with an error that wraps bufio.ErrTooLong and
// reports the line it occurred on.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{
		Verdicts: map[int][]string{},
		Steps:    map[int][]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, ReadBufferSize), ReadMaxLineBytes)
	line := 0
	metaLine := 0 // line number of the meta header, 0 while unseen
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch e.Kind {
		case KindMeta:
			if metaLine != 0 {
				// Covers both the literal duplicate and the mid-stream meta:
				// a meta after symbols or verdicts necessarily follows the
				// header (events before any meta are rejected below).
				return nil, fmt.Errorf("trace: line %d: duplicate meta line (header is at line %d)", line, metaLine)
			}
			if e.Meta == nil {
				return nil, fmt.Errorf("trace: line %d: meta line carries no meta object", line)
			}
			t.Meta = *e.Meta
			metaLine = line
		case KindSym:
			if metaLine == 0 {
				return nil, fmt.Errorf("trace: line %d: symbol line before the meta header: %w", line, ErrMissingMeta)
			}
			s, err := DecodeSymbol(e)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Word = append(t.Word, s)
		case KindVerdict:
			if metaLine == 0 {
				return nil, fmt.Errorf("trace: line %d: verdict line before the meta header: %w", line, ErrMissingMeta)
			}
			t.Verdicts[e.Proc] = append(t.Verdicts[e.Proc], e.Verdict)
			t.Steps[e.Proc] = append(t.Steps[e.Proc], e.Step)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown event kind %q", line, e.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: line exceeds ReadMaxLineBytes (%d): %w", line+1, ReadMaxLineBytes, err)
		}
		return nil, fmt.Errorf("trace: %w", err)
	}
	if metaLine == 0 {
		return nil, fmt.Errorf("trace: %w", ErrMissingMeta)
	}
	return t, nil
}

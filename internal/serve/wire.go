package serve

import (
	"encoding/json"
	"strconv"

	"github.com/drv-go/drv/exp/trace"
)

// The wire path without reflection or per-line heap objects. Almost every
// request line is one history symbol and almost every response line is a
// verdict, so those two shapes are parsed and written by hand; every other
// line goes through encoding/json, which stays the definition of the
// protocol. A canonical symbol line decodes straight into the stream id's
// bytes and a trace.Symbol, which the reader pushes onto the stream's
// history without building a Request; a verdict line is written from a
// VerdictEvent passed by value. The hand paths only take lines on which
// encoding/json is known to agree byte for byte, and FuzzDecodeRequest and
// FuzzAppendResponse check that agreement.

// decodeSymbol parses the canonical symbol line
//
//	{"event":{"stream":S,"kind":"sym"[,"proc":N],"sym":"inv"|"res","op":S[,"val":{"t":T[,"int":N][,"str":S]}]}}
//
// with T one of "unit", "int" or "rec", and no whitespace, escapes or
// non-ASCII bytes in it. It returns the stream id's bytes, which alias raw,
// and the symbol json.Unmarshal and trace.DecodeSymbol give for the line.
// On any other line it reports false. Only an int outside 0–255 and a rec
// value allocate: boxing them into the symbol's Value.
func decodeSymbol(raw []byte) (stream []byte, sym trace.Symbol, ok bool) {
	p := symLine{b: raw, ok: true}
	p.lit(`{"event":{"stream":`)
	stream = p.str()
	p.lit(`,"kind":"sym"`)
	var proc int64
	if p.opt(`,"proc":`) {
		proc = p.num(9)
	}
	p.lit(`,"sym":`)
	switch {
	case p.opt(`"inv"`):
		sym.Kind = trace.Inv
	case p.opt(`"res"`):
		sym.Kind = trace.Res
	default:
		p.ok = false
	}
	p.lit(`,"op":`)
	op := p.str()
	var tag, str []byte
	var n int64
	hasVal := p.opt(`,"val":{"t":`)
	if hasVal {
		tag = p.str()
		if p.opt(`,"int":`) {
			n = p.num(18)
		}
		if p.opt(`,"str":`) {
			str = p.str()
		}
		p.lit(`}`)
	}
	p.lit(`}}`)
	if !p.ok || len(p.b) != 0 {
		return nil, trace.Symbol{}, false
	}
	if hasVal {
		// The tag alone picks the value, as in trace.DecodeSymbol; seq values
		// and unknown tags take the json.Unmarshal path.
		switch string(tag) {
		case "unit":
			sym.Val = trace.Unit{}
		case "int":
			sym.Val = trace.Int(n)
		case "rec":
			sym.Val = trace.Rec(str)
		default:
			return nil, trace.Symbol{}, false
		}
	}
	sym.Proc, sym.Op = int(proc), opName(op)
	return stream, sym, true
}

// symLine is a cursor over a candidate symbol line. Once a step fails, ok
// is false and every later step is a no-op, so a parse reads as the grammar
// and checks ok once at the end.
type symLine struct {
	b  []byte
	ok bool
}

// opt consumes s if the input continues with it, and reports whether it did.
func (p *symLine) opt(s string) bool {
	if p.ok && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return true
	}
	return false
}

// lit consumes s, which the input must continue with.
func (p *symLine) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// str consumes a JSON string of printable ASCII without '"' or '\\' — one
// that encoding/json decodes to its bytes verbatim — and returns its bytes.
func (p *symLine) str() []byte {
	if !p.ok || len(p.b) == 0 || p.b[0] != '"' {
		p.ok = false
		return nil
	}
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := p.b[1:i]
			p.b = p.b[i+1:]
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			p.ok = false
			return nil
		}
	}
	p.ok = false
	return nil
}

// num consumes an integer literal of at most digits digits. With 9 digits
// it fits any Go int and with 18 an int64, so encoding/json decodes it to the
// same value; fractions, exponents and leading zeros are refused.
func (p *symLine) num(digits int) int64 {
	if !p.ok {
		return 0
	}
	i := 0
	if len(p.b) > 0 && p.b[0] == '-' {
		i = 1
	}
	start := i
	var n int64
	for ; i < len(p.b) && '0' <= p.b[i] && p.b[i] <= '9'; i++ {
		n = n*10 + int64(p.b[i]-'0')
	}
	if d := i - start; d == 0 || d > digits || (d > 1 && p.b[start] == '0') {
		p.ok = false
		return 0
	}
	if start == 1 {
		n = -n
	}
	p.b = p.b[i:]
	return n
}

// opName returns b as a string, allocating only when it is not the
// operation name of a built-in object.
func opName(b []byte) string {
	switch string(b) {
	case trace.OpRead:
		return trace.OpRead
	case trace.OpWrite:
		return trace.OpWrite
	case trace.OpInc:
		return trace.OpInc
	case trace.OpAppend:
		return trace.OpAppend
	case trace.OpGet:
		return trace.OpGet
	case trace.OpEnq:
		return trace.OpEnq
	case trace.OpDeq:
		return trace.OpDeq
	case trace.OpPush:
		return trace.OpPush
	case trace.OpPop:
		return trace.OpPop
	case trace.OpPropose:
		return trace.OpPropose
	case trace.OpScan:
		return trace.OpScan
	}
	return string(b)
}

// appendResponse appends r's line, newline included, to b: the bytes
// json.Encoder.Encode writes for r. Verdict lines take appendVerdict, and
// done lines whose stream id encoding/json copies verbatim are written
// directly; every other line is json.Marshal's.
func appendResponse(b []byte, r Response) []byte {
	if v, d := r.Verdict, r.Done; r.Config == nil && r.Opened == nil && r.Error == nil {
		switch {
		case v != nil && d == nil:
			return appendVerdict(b, *v)
		case d != nil && v == nil && plain(d.Stream):
			b = append(b, `{"done":{"stream":"`...)
			b = append(b, d.Stream...)
			b = append(b, `","events":`...)
			b = strconv.AppendInt(b, int64(d.Events), 10)
			b = append(b, `,"steps":`...)
			b = strconv.AppendInt(b, int64(d.Steps), 10)
			b = append(b, `,"verdicts":`...)
			b = strconv.AppendInt(b, int64(d.Verdicts), 10)
			b = append(b, `,"no":`...)
			b = strconv.AppendInt(b, int64(d.NO), 10)
			if d.Truncated {
				b = append(b, `,"truncated":true`...)
			}
			return append(b, "}}\n"...)
		}
	}
	return appendMarshal(b, r)
}

// appendVerdict appends the line of Response{Verdict: &v}, newline included,
// to b. Taking v by value, it writes a verdict whose strings encoding/json
// copies verbatim without allocating.
func appendVerdict(b []byte, v VerdictEvent) []byte {
	if !plain(v.Stream) || !plain(v.Verdict) {
		esc := v // only this copy escapes, so the common path stays on the stack
		return appendMarshal(b, Response{Verdict: &esc})
	}
	b = append(b, `{"verdict":{"stream":"`...)
	b = append(b, v.Stream...)
	b = append(b, `","proc":`...)
	b = strconv.AppendInt(b, int64(v.Proc), 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(v.Index), 10)
	b = append(b, `,"verdict":"`...)
	b = append(b, v.Verdict...)
	b = append(b, `","step":`...)
	b = strconv.AppendInt(b, int64(v.Step), 10)
	if v.Hist != 0 {
		b = append(b, `,"hist":`...)
		b = strconv.AppendInt(b, int64(v.Hist), 10)
	}
	return append(b, "}}\n"...)
}

// appendMarshal appends json.Marshal's line for r and a newline to b.
func appendMarshal(b []byte, r Response) []byte {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Response holds only strings, ints and bools
	}
	return append(append(b, line...), '\n')
}

// plain reports whether encoding/json writes s verbatim inside quotes:
// printable ASCII other than '"', '\\' and the HTML-escaped '<', '>', '&'.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

package trace_test

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/drv-go/drv/exp/trace"
)

// TestReadErrorPaths table-tests the hostile inputs the wire format must
// reject, pinning that each error names the offending line.
func TestReadErrorPaths(t *testing.T) {
	meta := `{"kind":"meta","meta":{"n":2}}`
	sym := `{"kind":"sym","proc":0,"sym":"inv","op":"inc"}`
	tests := []struct {
		name string
		in   string
		want string // substring the error must contain
		is   error  // optional sentinel the error must wrap
	}{
		{
			name: "garbage JSON",
			in:   meta + "\n{not json}\n",
			want: "line 2",
		},
		{
			name: "unknown kind",
			in:   meta + "\n" + `{"kind":"wat"}` + "\n",
			want: `line 2: unknown event kind "wat"`,
		},
		{
			name: "unknown value tag",
			in:   meta + "\n" + `{"kind":"sym","proc":0,"sym":"inv","op":"inc","val":{"t":"blob"}}` + "\n",
			want: `line 2: trace: unknown value tag "blob"`,
		},
		{
			name: "unknown symbol kind",
			in:   meta + "\n" + `{"kind":"sym","proc":0,"sym":"bogus","op":"inc"}` + "\n",
			want: `line 2: trace: unknown symbol kind "bogus"`,
		},
		{
			name: "empty trace",
			in:   "",
			want: "missing meta header",
			is:   trace.ErrMissingMeta,
		},
		{
			name: "symbol before meta",
			in:   sym + "\n" + meta + "\n",
			want: "line 1: symbol line before the meta header",
			is:   trace.ErrMissingMeta,
		},
		{
			name: "verdict before meta",
			in:   `{"kind":"verdict","proc":0,"verdict":"YES","step":3}` + "\n" + meta + "\n",
			want: "line 1: verdict line before the meta header",
			is:   trace.ErrMissingMeta,
		},
		{
			name: "duplicate meta",
			in:   meta + "\n" + meta + "\n",
			want: "line 2: duplicate meta line (header is at line 1)",
		},
		{
			name: "mid-stream meta",
			in:   meta + "\n" + sym + "\n" + meta + "\n",
			want: "line 3: duplicate meta line (header is at line 1)",
		},
		{
			name: "meta line without meta object",
			in:   `{"kind":"meta"}` + "\n",
			want: "line 1: meta line carries no meta object",
		},
		{
			name: "too-long line",
			in:   meta + "\n" + `{"kind":"sym","op":"` + strings.Repeat("x", trace.ReadMaxLineBytes+1) + `"}` + "\n",
			want: "line 2: line exceeds ReadMaxLineBytes",
			is:   bufio.ErrTooLong,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Read accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("error %q does not wrap %v", err, tc.is)
			}
		})
	}
}

// encodeValue and decodeValue reach the value codec through a response
// symbol's value, where the wire format carries one.
func encodeValue(v trace.Value) (*trace.WireValue, error) {
	e, err := trace.EncodeSymbol(trace.NewRes(0, "op", v))
	return e.Val, err
}

func decodeValue(v *trace.WireValue) (trace.Value, error) {
	sym, err := trace.DecodeSymbol(trace.Event{Kind: trace.KindSym, Sym: "res", Op: "op", Val: v})
	return sym.Val, err
}

// TestEmptySeqCanonical pins the canonical wire representation of empty and
// nested-empty sequence values: Encode∘Decode is the identity on the wire
// form, and both Seq(nil) and Seq{} encode to the same line.
func TestEmptySeqCanonical(t *testing.T) {
	encNil, err := encodeValue(trace.Seq(nil))
	if err != nil {
		t.Fatal(err)
	}
	encEmpty, err := encodeValue(trace.Seq{})
	if err != nil {
		t.Fatal(err)
	}
	canonical := &trace.WireValue{T: "seq"}
	if !reflect.DeepEqual(encNil, canonical) || !reflect.DeepEqual(encEmpty, canonical) {
		t.Fatalf("empty-seq encodings not canonical: nil→%+v empty→%+v", encNil, encEmpty)
	}
	for _, wire := range []*trace.WireValue{
		{T: "seq"},
		{T: "seq", Seq: []string{}},
	} {
		v, err := decodeValue(wire)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := v.(trace.Seq)
		if !ok || s == nil || len(s) != 0 {
			t.Fatalf("decode %+v = %#v, want canonical non-nil empty Seq", wire, v)
		}
		back, err := encodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, canonical) {
			t.Fatalf("Encode(Decode(%+v)) = %+v, want %+v", wire, back, canonical)
		}
	}
	// Nested-empty: empty records inside a non-empty sequence round-trip
	// exactly.
	nested := trace.Seq{"", "x", ""}
	enc, err := encodeValue(nested)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, nested) {
		t.Fatalf("nested-empty round trip changed %#v into %#v", nested, dec)
	}
	again, err := encodeValue(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, enc) {
		t.Fatalf("nested-empty re-encoding drifted: %+v vs %+v", enc, again)
	}
}

func sampleWord() trace.Word {
	return trace.Word{
		trace.NewInv(0, "write", trace.Int(3)),
		trace.NewInv(1, "read", nil),
		trace.NewRes(0, "write", trace.Unit{}),
		trace.NewRes(1, "read", trace.Int(3)),
		trace.NewInv(0, "append", trace.Rec("r1")),
		trace.NewRes(0, "append", trace.Unit{}),
		trace.NewInv(1, "get", nil),
		trace.NewRes(1, "get", trace.Seq{"r1"}),
	}
}

func TestRoundTripWord(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	member := true
	if err := w.WriteMeta(trace.Meta{N: 2, Lang: "LIN_REG", Member: &member, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ww := sampleWord()
	if err := w.WriteWord(ww); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteVerdict(0, "YES", 12); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteVerdict(1, "NO", 15); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.N != 2 || tr.Meta.Lang != "LIN_REG" || tr.Meta.Member == nil || !*tr.Meta.Member || tr.Meta.Seed != 7 {
		t.Errorf("meta mismatch: %+v", tr.Meta)
	}
	if !tr.Word.Equal(ww) {
		t.Errorf("word mismatch:\n got %v\nwant %v", tr.Word, ww)
	}
	if got := tr.Verdicts[0]; len(got) != 1 || got[0] != "YES" {
		t.Errorf("verdicts[0] = %v", got)
	}
	if got := tr.Verdicts[1]; len(got) != 1 || got[0] != "NO" {
		t.Errorf("verdicts[1] = %v", got)
	}
	if tr.Steps[1][0] != 15 {
		t.Errorf("step = %d, want 15", tr.Steps[1][0])
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []trace.Value{
		nil,
		trace.Unit{},
		trace.Int(0),
		trace.Int(-42),
		trace.Int(1 << 40),
		trace.Rec(""),
		trace.Rec("payload with spaces and \"quotes\""),
		trace.Seq{},
		trace.Seq{"a"},
		trace.Seq{"a", "b", "c"},
	}
	for _, v := range vals {
		enc, err := encodeValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		dec, err := decodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		switch {
		case v == nil:
			if dec != nil {
				t.Errorf("nil round-trips to %v", dec)
			}
		default:
			if dec == nil || !v.Equal(dec) {
				t.Errorf("%v round-trips to %v", v, dec)
			}
		}
	}
}

func TestEncodeValueUnknownType(t *testing.T) {
	type alien struct{ trace.Value }
	if _, err := encodeValue(alien{}); err == nil {
		t.Error("expected error for unknown value type")
	}
}

func TestDecodeSymbolErrors(t *testing.T) {
	if _, err := trace.DecodeSymbol(trace.Event{Kind: trace.KindMeta}); err == nil {
		t.Error("expected error decoding meta as symbol")
	}
	if _, err := trace.DecodeSymbol(trace.Event{Kind: trace.KindSym, Sym: "bogus"}); err == nil {
		t.Error("expected error for bogus symbol kind")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteMeta(trace.Meta{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWord(trace.Word{trace.NewInv(0, "inc", nil)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	in := "\n" + buf.String() + "\n\n"
	tr, err := trace.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Word) != 1 {
		t.Fatalf("got %d symbols, want 1", len(tr.Word))
	}
}

// randomWord builds an arbitrary well-formed-ish word for property testing
// of the encoding: the encoding must round-trip any symbol sequence, not just
// well-formed ones.
func randomWord(rng *rand.Rand, n int) trace.Word {
	ops := []string{"read", "write", "inc", "append", "get"}
	w := make(trace.Word, n)
	for i := range w {
		var v trace.Value
		switch rng.Intn(4) {
		case 0:
			v = trace.Int(rng.Int63n(100) - 50)
		case 1:
			v = trace.Unit{}
		case 2:
			v = trace.Rec("r" + string(rune('a'+rng.Intn(26))))
		case 3:
			v = nil
		}
		k := trace.Inv
		if rng.Intn(2) == 0 {
			k = trace.Res
		}
		w[i] = trace.Symbol{Proc: rng.Intn(4), Kind: k, Op: ops[rng.Intn(len(ops))], Val: v}
	}
	return w
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ww := randomWord(rng, int(size%64))
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		if err := w.WriteMeta(trace.Meta{N: 4}); err != nil {
			return false
		}
		if err := w.WriteWord(ww); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			return false
		}
		return tr.Word.Equal(ww)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

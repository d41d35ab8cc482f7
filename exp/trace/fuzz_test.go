package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// FuzzTraceEncodeDecode round-trips the on-disk trace format in both
// directions. Structured direction: fuzz bytes build a word whose symbols
// must survive Encode/Decode exactly. Parser direction: the bytes are fed to
// Read as a hostile trace file; whatever parses must re-encode to a stream
// that parses to the same trace (decode ∘ encode = id on the parser's
// image), and the parser must never panic or accept symbols it cannot
// re-encode.
func FuzzTraceEncodeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte(`{"kind":"meta","meta":{"n":2,"lang":"WEC_COUNT"}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"inv","op":"inc","val":{"t":"unit"}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"res","op":"inc","val":{"t":"unit"}}` + "\n" +
		`{"kind":"verdict","proc":0,"verdict":"YES","step":7}`))
	f.Add([]byte(`{"kind":"sym","proc":1,"sym":"res","op":"get","val":{"t":"seq","seq":["a","b"]}}`))
	// Empty and nested-empty sequences: all wire spellings of an empty seq
	// ({"t":"seq"}, "seq":null, "seq":[]) must decode to the canonical Seq{}
	// and re-encode to the canonical {"t":"seq"} line, and empty records
	// inside a sequence must survive untouched.
	f.Add([]byte(`{"kind":"meta","meta":{"n":1}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"res","op":"get","val":{"t":"seq"}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"res","op":"get","val":{"t":"seq","seq":null}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"res","op":"get","val":{"t":"seq","seq":[]}}` + "\n" +
		`{"kind":"sym","proc":0,"sym":"res","op":"get","val":{"t":"seq","seq":["","x",""]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStructured(t, data)
		fuzzParser(t, data)
	})
}

// fuzzStructured builds symbols from the bytes and round-trips each through
// the event encoding.
func fuzzStructured(t *testing.T, data []byte) {
	var w trace.Word
	for i := 0; i+1 < len(data) && len(w) < 32; i += 2 {
		a, b := data[i], data[i+1]
		proc := int(a % 4)
		var val trace.Value
		switch b % 4 {
		case 0:
			val = trace.Unit{}
		case 1:
			val = trace.Int(int64(a) - 128)
		case 2:
			val = trace.Rec(strings.Repeat("r", int(a%5)+1))
		default:
			s := trace.Seq{"x", trace.Rec([]byte{'a' + a%3}), "z"}[:a%4]
			if a%8 == 0 {
				s = nil // nil and empty Seq must share one canonical encoding
			}
			val = s
		}
		if a%2 == 0 {
			w = append(w, trace.NewInv(proc, "op", val))
		} else {
			w = append(w, trace.NewRes(proc, "op", val))
		}
	}
	for _, sym := range w {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			t.Fatalf("cannot encode %v: %v", sym, err)
		}
		back, err := trace.DecodeSymbol(ev)
		if err != nil {
			t.Fatalf("cannot decode %v: %v", ev, err)
		}
		if !back.Equal(sym) {
			t.Fatalf("round trip changed %v into %v", sym, back)
		}
		// Encode∘Decode is the identity on wire representations: the decoded
		// symbol re-encodes to byte-identical JSON, so empty and nil values
		// cannot drift between spellings across round trips.
		again, err := trace.EncodeSymbol(back)
		if err != nil {
			t.Fatalf("cannot re-encode %v: %v", back, err)
		}
		j1, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("re-encoding is not canonical: %s vs %s", j1, j2)
		}
	}
}

// fuzzParser feeds raw bytes to the trace reader and closes the loop on
// whatever it accepts.
func fuzzParser(t *testing.T, data []byte) {
	tr, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		return // hostile input rejected: fine
	}
	var buf bytes.Buffer
	wr := trace.NewWriter(&buf)
	if err := wr.WriteMeta(tr.Meta); err != nil {
		t.Fatalf("re-encoding meta: %v", err)
	}
	if err := wr.WriteWord(tr.Word); err != nil {
		t.Fatalf("re-encoding accepted word: %v", err)
	}
	for proc, vs := range tr.Verdicts {
		for k, v := range vs {
			if err := wr.WriteVerdict(proc, v, tr.Steps[proc][k]); err != nil {
				t.Fatalf("re-encoding verdict: %v", err)
			}
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("re-encoded trace does not parse: %v", err)
	}
	if back.Meta.N != tr.Meta.N || back.Meta.Lang != tr.Meta.Lang ||
		back.Meta.Seed != tr.Meta.Seed || back.Meta.Note != tr.Meta.Note {
		t.Fatalf("meta changed: %+v vs %+v", tr.Meta, back.Meta)
	}
	switch {
	case (back.Meta.Member == nil) != (tr.Meta.Member == nil):
		t.Fatalf("meta Member presence changed: %+v vs %+v", tr.Meta, back.Meta)
	case back.Meta.Member != nil && *back.Meta.Member != *tr.Meta.Member:
		t.Fatalf("meta Member value changed: %v vs %v", *tr.Meta.Member, *back.Meta.Member)
	}
	if !back.Word.Equal(tr.Word) {
		t.Fatalf("word changed:\n%v\nvs\n%v", tr.Word, back.Word)
	}
	if len(back.Verdicts) != len(tr.Verdicts) {
		t.Fatalf("verdict process sets differ: %v vs %v", tr.Verdicts, back.Verdicts)
	}
	for proc, vs := range tr.Verdicts {
		if len(back.Verdicts[proc]) != len(vs) {
			t.Fatalf("process %d verdict counts differ", proc)
		}
		for k := range vs {
			if back.Verdicts[proc][k] != vs[k] || back.Steps[proc][k] != tr.Steps[proc][k] {
				t.Fatalf("process %d verdict %d changed", proc, k)
			}
		}
	}
}

// FuzzWordStringStable checks that rendering is deterministic and that Clone
// produces an equal, independent word — cheap invariants the trace tooling
// leans on.
func FuzzWordStringStable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := wordFromBytes(data, 3)
		c := w.Clone()
		if !w.Equal(c) {
			t.Fatal("clone not equal to original")
		}
		if !bytes.Equal([]byte(w.String()), []byte(c.String())) {
			t.Fatal("rendering differs between equal words")
		}
		if len(c) > 0 {
			c[0] = trace.NewInv((c[0].Proc+1)%3, "write", trace.Int(99))
			if w.Equal(c) && len(w) > 0 {
				t.Fatal("mutating the clone changed the original")
			}
		}
	})
}

// wordFromBytes deterministically builds a well-formed word from fuzz input:
// each byte picks a process and either opens its next operation or closes
// the pending one, so per-process alternation holds by construction. The
// word length is capped at 40 symbols.
func wordFromBytes(data []byte, n int) trace.Word {
	const maxSymbols = 40
	ops := []string{"read", "write", "inc"}
	pending := make([]string, n)
	var w trace.Word
	for _, b := range data {
		if len(w) >= maxSymbols {
			break
		}
		p := int(b) % n
		if pending[p] == "" {
			op := ops[int(b>>3)%len(ops)]
			w = append(w, trace.NewInv(p, op, trace.Int(int64(b>>5))))
			pending[p] = op
		} else {
			w = append(w, trace.NewRes(p, pending[p], trace.Int(int64(b>>4))))
			pending[p] = ""
		}
	}
	return w
}

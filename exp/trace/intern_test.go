package trace_test

import (
	"strconv"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// internCase is an interned object with a flat slice model of its state:
// add appends an item, take is the object's other operation, model returns
// take's result on the items, oldest first, and the items after it, and
// encode is the AppendKey encoding of the items.
type internCase struct {
	obj       trace.Object
	add, take string
	items     []trace.Value // the argument domain of add, duplicates included
	model     func(items []trace.Value) (ret trace.Value, rest []trace.Value)
	encode    func(items []trace.Value) string
}

// joinItems is the queue and stack encoding: tag plus the comma-joined
// decimal items, oldest first.
func joinItems(tag string) func([]trace.Value) string {
	return func(items []trace.Value) string {
		parts := make([]string, len(items))
		for i, v := range items {
			parts[i] = v.String()
		}
		return tag + strings.Join(parts, ",")
	}
}

var internCases = []internCase{
	{
		obj: trace.Queue(), add: trace.OpEnq, take: trace.OpDeq,
		items: []trace.Value{trace.Int(1), trace.Int(2), trace.Int(12), trace.Int(-1)},
		model: func(items []trace.Value) (trace.Value, []trace.Value) {
			if len(items) == 0 {
				return trace.Empty, items
			}
			return items[0], items[1:]
		},
		encode: joinItems("q"),
	},
	{
		obj: trace.Stack(), add: trace.OpPush, take: trace.OpPop,
		items: []trace.Value{trace.Int(1), trace.Int(2), trace.Int(12), trace.Int(-1)},
		model: func(items []trace.Value) (trace.Value, []trace.Value) {
			if len(items) == 0 {
				return trace.Empty, items
			}
			return items[len(items)-1], items[:len(items)-1]
		},
		encode: joinItems("s"),
	},
	{
		obj: trace.Ledger(), add: trace.OpAppend, take: trace.OpGet,
		// Records holding the old separator: [a, a|a] and [a|a, a] must stay
		// apart, as must [] and [""].
		items: []trace.Value{trace.Rec("a"), trace.Rec("a|a"), trace.Rec("|"), trace.Rec("")},
		model: func(items []trace.Value) (trace.Value, []trace.Value) {
			recs := trace.Seq{}
			for _, v := range items {
				recs = append(recs, v.(trace.Rec))
			}
			return recs, items
		},
		encode: func(items []trace.Value) string {
			enc := "l"
			for _, v := range items {
				r := string(v.(trace.Rec))
				enc += strconv.Itoa(len(r)) + ":" + r
			}
			return enc
		},
	},
}

// modelKey renders model contents unambiguously.
func modelKey(items []trace.Value) string {
	var b strings.Builder
	for _, v := range items {
		b.WriteString(strconv.Quote(v.String()))
		b.WriteByte(',')
	}
	return b.String()
}

// FuzzInternedStateIDs drives queue, stack and ledger states of two
// interned trees, each rooted by its own Init call, with fuzz-chosen
// operations: each byte picks one of four cursors (all starting empty, so
// their paths reconverge), the operation, and an item from a domain with
// duplicates; take on an empty queue or stack is included. It checks the
// Interned contract per tree — IDs are non-zero, and equal exactly when
// encodings are — that both trees return the model's values, and that
// their encodings equal each other and the model's.
func FuzzInternedStateIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x0c, 0x00, 0x01, 0x0d, 0x05, 0x00, 0x02})
	f.Add([]byte{0x04, 0x0c, 0x05, 0x0d, 0x00, 0x01, 0x1c, 0x1d, 0x10, 0x11})
	f.Add(sweepBytes(64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		for _, tc := range internCases {
			checkInterned(t, tc, data)
		}
	})
}

// idIndex records one tree's ID and encoding pairs, to check that they
// determine each other.
type idIndex struct {
	idOf  map[string]uint64 // encoding → ID
	keyOf map[uint64]string // ID → encoding
}

func (x idIndex) record(t *testing.T, name string, st trace.State) string {
	t.Helper()
	key, id := string(st.AppendKey(nil)), st.(trace.Interned).ID()
	if id == 0 {
		t.Fatalf("%s: interned state %q reports id 0", name, key)
	}
	if prev, ok := x.idOf[key]; ok && prev != id {
		t.Fatalf("%s: encoding %q has ids %d and %d", name, key, prev, id)
	}
	if prev, ok := x.keyOf[id]; ok && prev != key {
		t.Fatalf("%s: id %d has encodings %q and %q", name, id, prev, key)
	}
	x.idOf[key], x.keyOf[id] = id, key
	return key
}

func checkInterned(t *testing.T, tc internCase, data []byte) {
	type cursor struct {
		st    [2]trace.State // one state per tree
		items []trace.Value
	}
	name := tc.obj.Name()
	roots := [2]trace.State{tc.obj.Init(), tc.obj.Init()}
	var cur [4]cursor
	for i := range cur {
		cur[i] = cursor{st: roots}
	}
	var trees [2]idIndex
	for i := range trees {
		trees[i] = idIndex{idOf: map[string]uint64{}, keyOf: map[uint64]string{}}
	}
	modelOf := map[string]string{}
	record := func(c cursor) {
		want := tc.encode(c.items)
		for i, st := range c.st {
			if key := trees[i].record(t, name, st); key != want {
				t.Fatalf("%s: tree %d encodes %s as %q, want %q", name, i, modelKey(c.items), key, want)
			}
		}
		m := modelKey(c.items)
		if prev, ok := modelOf[want]; ok && prev != m {
			t.Fatalf("%s: encoding %q encodes both %s and %s", name, want, prev, m)
		}
		modelOf[want] = m
	}
	record(cur[0])
	for _, b := range data {
		c := &cur[b&3]
		op, arg := tc.take, trace.Value(trace.Unit{})
		var want trace.Value = trace.Unit{}
		items := c.items
		if b&4 != 0 {
			op, arg = tc.add, tc.items[int(b>>3)%len(tc.items)]
			items = append(items[:len(items):len(items)], arg)
		} else {
			want, items = tc.model(items)
		}
		next := cursor{items: items}
		for i, st := range c.st {
			st, ret, ok := st.Apply(op, arg)
			if !ok {
				t.Fatalf("%s: %s(%v) rejected", name, op, arg)
			}
			if !ret.Equal(want) {
				t.Fatalf("%s: tree %d: %s(%v) on %s returned %v, model %v", name, i, op, arg, modelKey(c.items), ret, want)
			}
			next.st[i] = st
		}
		*c = next
		record(*c)
	}
}

// sweepBytes is a fixed pseudo-random seed input of n bytes.
func sweepBytes(n int) []byte {
	data := make([]byte, n)
	x := uint32(1)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return data
}

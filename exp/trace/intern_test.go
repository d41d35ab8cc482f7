package trace_test

import (
	"strconv"
	"strings"
	"testing"

	"github.com/drv-go/drv/exp/trace"
)

// internCase is an interned object with a flat slice model of its state:
// add appends an item, take is the object's other operation, and model
// returns take's result on the items, oldest first, and the items after it.
type internCase struct {
	obj       trace.Object
	add, take string
	items     []trace.Value // the argument domain of add, duplicates included
	model     func(items []trace.Value) (ret trace.Value, rest []trace.Value)
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

// FuzzInternedStateIDs drives queue, stack and ledger states of one
// InternRoot tree, and the same operations from Init, with fuzz-chosen
// operations: each byte picks one of four cursors (all starting empty, so
// their paths reconverge), the operation, and an item from a domain with
// duplicates; take on an empty queue or stack is included. It checks the
// Interned contract — within the tree, IDs are equal exactly when Keys are,
// and Keys exactly when the flat models are — that both trees return the
// model's values and agree on Keys, and that Init-rooted states report 0.
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

func checkInterned(t *testing.T, tc internCase, data []byte) {
	type cursor struct {
		st, flat trace.State
		items    []trace.Value
	}
	name := tc.obj.Name()
	root := tc.obj.(trace.RootInterner).InternRoot()
	var cur [4]cursor
	for i := range cur {
		cur[i] = cursor{st: root, flat: tc.obj.Init()}
	}
	idOf := map[string]uint64{}  // Key → ID
	keyOf := map[uint64]string{} // ID → Key
	modelOf := map[string]string{}
	record := func(c cursor) {
		key, id := c.st.Key(), c.st.(trace.Interned).ID()
		if id == 0 {
			t.Fatalf("%s: interned state %q reports id 0", name, key)
		}
		if got := c.flat.(trace.Interned).ID(); got != 0 {
			t.Fatalf("%s: Init-rooted state %q reports id %d", name, key, got)
		}
		if flat := c.flat.Key(); flat != key {
			t.Fatalf("%s: interned key %q, Init-rooted key %q", name, key, flat)
		}
		if prev, ok := idOf[key]; ok && prev != id {
			t.Fatalf("%s: key %q has ids %d and %d", name, key, prev, id)
		}
		if prev, ok := keyOf[id]; ok && prev != key {
			t.Fatalf("%s: id %d has keys %q and %q", name, id, prev, key)
		}
		m := modelKey(c.items)
		if prev, ok := modelOf[key]; ok && prev != m {
			t.Fatalf("%s: key %q encodes both %s and %s", name, key, prev, m)
		}
		idOf[key], keyOf[id], modelOf[key] = id, key, m
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
		st, ret, ok := c.st.Apply(op, arg)
		flat, fret, fok := c.flat.Apply(op, arg)
		if !ok || !fok {
			t.Fatalf("%s: %s(%v) rejected", name, op, arg)
		}
		if !ret.Equal(want) || !fret.Equal(want) {
			t.Fatalf("%s: %s(%v) on %s returned %v (Init-rooted %v), model %v", name, op, arg, modelKey(c.items), ret, fret, want)
		}
		*c = cursor{st: st, flat: flat, items: items}
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

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	// parent [0,100]; children [10,40] and [30,60] overlap (union [10,60]),
	// [90,120] sticks out of the parent (covers [90,100]); grandchild
	// [15,20] belongs to the first child only.
	list := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(list)
	want := map[string]time.Duration{
		"parent":     100 - 50 - 10,
		"child":      (30 - 5) + 30,
		"late":       30,
		"grandchild": 5,
		"other":      7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestSpansRecordAndWrite(t *testing.T) {
	var none *spans
	if id := none.begin("x", 0, 0); id != 0 {
		t.Fatalf("a nil recorder returned span id %d", id)
	}
	none.end(0)

	s := newSpans()
	root := s.begin("root", 0, 7)
	kid := s.begin("kid", root, 7)
	s.end(kid)
	s.end(root)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := s.write(path); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1]["parent"] != float64(root) || got[0]["req"] != float64(7) || got[1]["name"] != "kid" {
		t.Fatalf("spans file = %s", js)
	}
	for _, k := range []string{"id", "parent", "name", "start_ns", "end_ns", "req"} {
		if _, ok := got[0][k]; !ok {
			t.Errorf("span has no %q field: %s", k, js)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// requestBytes renders every request line a traffic plan sends.
func requestBytes(tr *traffic) []byte {
	var b []byte
	for ph, arrivals := range tr.open {
		for i, a := range arrivals {
			id := phaseNames[ph] + string(rune('a'+i%26))
			for _, t := range a.hist.req {
				b = t.appendTo(b, id)
			}
		}
	}
	for _, h := range tr.closed {
		for _, t := range h.req {
			b = t.appendTo(b, "c")
		}
	}
	return b
}

func TestSameSeedSameRequestLines(t *testing.T) {
	plan := func(seed int64) []byte {
		p, err := newPool(seed, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return requestBytes(newTraffic(p, seed, 2*time.Second, rateLow, rateHigh))
	}
	a, b := plan(3), plan(3)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 3 drew two different sets of request lines")
	}
	if bytes.Equal(a, plan(4)) {
		t.Fatal("seeds 3 and 4 drew the same request lines")
	}
}

func TestReferenceVerdictsMatchAFreshReplay(t *testing.T) {
	p, err := newPool(5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nos := 0
	for _, h := range p.all {
		if !trace.IsWellFormed(h.word) || len(h.word) != classes[h.class].events {
			t.Fatalf("%s %s history has %d events or is malformed", classes[h.class].name, h.object, len(h.word))
		}
		res, err := monitor.Run(h.monitorConfig())
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		enc := json.NewEncoder(&got)
		for _, r := range responses(res, "s9") {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		if !sameLines(got.Bytes(), h.resp, "s9") {
			t.Fatalf("a fresh replay of a %s %s history disagrees with its reference lines", classes[h.class].name, h.object)
		}
		if h.object == "stale" {
			nos += h.nos
		}
	}
	if nos == 0 {
		t.Error("no stale-dequeue history drew a NO verdict")
	}
}

func TestMixWithinTwoPercent(t *testing.T) {
	const n = 10_000
	p, err := newPool(7, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pk := p.picker(rand.New(rand.NewSource(7)))
	classCount := make([]int, len(classes))
	objCount := map[int]map[string]int{}
	for _, c := range classSequence(n) {
		classCount[c]++
		if objCount[c] == nil {
			objCount[c] = map[string]int{}
		}
		objCount[c][pk.pick(c).object]++
	}
	for c, cl := range classes {
		want := float64(cl.share) / classBlock
		if got := float64(classCount[c]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("class %s: share %.3f, want %.3f ± 0.02", cl.name, got, want)
		}
		for _, obj := range cl.objects {
			want := 1 / float64(len(cl.objects))
			if got := float64(objCount[c][obj]) / float64(classCount[c]); math.Abs(got-want) > 0.02 {
				t.Errorf("class %s object %s: share %.3f, want %.3f ± 0.02", cl.name, obj, got, want)
			}
		}
	}
}

func TestRecordHitsTheLengthExactly(t *testing.T) {
	for _, events := range []int{2, 32, 256} {
		for name, obj := range objects {
			w := record(obj.newSim(), events, 11)
			if len(w) != events || !trace.IsWellFormed(w) || len(trace.PendingOps(w)) != 0 {
				t.Errorf("%s: record(%d) gave %d events, well-formed %v, %d pending", name, events, len(w), trace.IsWellFormed(w), len(trace.PendingOps(w)))
			}
		}
	}
}

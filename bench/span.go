package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into a layer of the
// program. Spans of one request (a sweep, a stream, a probe history) share
// Req; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req"`
}

// spans keeps spans in memory until the run ends. A nil *spans records
// nothing, so untraced passes hand nil to the same code and pay one nil
// check per boundary.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span starting now and returns its ID (0 when s is nil).
func (s *spans) begin(name string, parent, req int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: now, End: now, Req: req})
	return len(s.list)
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].End = now
}

// add records a span whose bounds were measured elsewhere, such as the
// receipt times of a stream's response lines.
func (s *spans) add(name string, parent, req int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{
		ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds(), Req: req,
	})
	return len(s.list)
}

// snapshot returns a copy of the recorded spans.
func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// write stores the recorded spans as one JSON array.
func (s *spans) write(path string) error {
	js, err := json.Marshal(s.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of it that the union of its children's intervals covers.
// Children may overlap each other (parallel workers) and may stick out of
// their parent; only the covered part of the parent counts.
func selfTimes(list []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, sp := range list {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range list {
		out[sp.Name] += time.Duration(sp.End - sp.Start - covered(sp, children[sp.ID]))
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	for i, v := range ivs {
		if i == 0 || v.lo > reach {
			total += v.hi - v.lo
			reach = v.hi
		} else if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

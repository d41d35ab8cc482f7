package main

// Traffic for the serve-tcp workload. Histories are recorded the way an
// outside program would record its own data structures (the
// examples/extsut pattern): small objects defined in this file, driven by a
// seeded single-goroutine interleaving of logical processes and wrapped in
// an exp/monitor.Recorder. Each history is pre-encoded into the request
// lines a client sends and the response lines the server must answer with,
// and the open-loop schedule says when each stream starts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/serve"
)

// procs is the logical process count of every recorded history.
const procs = 3

// lineGap is the pacing of one stream's lines: one line per millisecond
// from its arrival, open and meta lines included.
const lineGap = time.Millisecond

// lengthClass is one stream-length class of the traffic. Short streams
// stress decoding, encoding and per-run setup; long ones the replay, whose
// cost per event grows with the history.
type lengthClass struct {
	name    string
	events  int
	share   int      // streams per block of classBlock
	objects []string // objects this class draws from
	pool    int      // distinct recorded histories per object
}

// classBlock is the denominator of the class shares.
const classBlock = 20

// classes is the stream mix: 70% short, 25% medium and 5% long. Long
// streams are registers only: most 1024-event queue histories take V_O
// seconds or run it out of memory (README.md).
var classes = []lengthClass{
	{name: "short", events: 32, share: 14, objects: []string{"queue", "stale", "register", "counter"}, pool: 12},
	{name: "medium", events: 256, share: 5, objects: []string{"queue", "stale", "register", "counter"}, pool: 4},
	{name: "long", events: 1024, share: 1, objects: []string{"register"}, pool: 4},
}

// meanEvents is the mean history length of a stream under the class mix.
func meanEvents() float64 {
	sum := 0
	for _, c := range classes {
		sum += c.share * c.events
	}
	return float64(sum) / classBlock
}

// object is one monitored object of the traffic: the monitor a stream of it
// opens, and the implementation its histories are recorded from.
type object struct {
	logic  string // serve Open.Logic
	spec   string // serve Open.Object, "" for the counter logic
	newSim func() sim
}

var objects = map[string]object{
	"queue":    {logic: "lin", spec: "queue", newSim: func() sim { return &fifo{} }},
	"stale":    {logic: "lin", spec: "queue", newSim: func() sim { return &staleFIFO{} }},
	"register": {logic: "lin", spec: "register", newSim: func() sim { return &cell{} }},
	"counter":  {logic: "wec", newSim: func() sim { return &tally{} }},
}

// sim is an object implementation under recording. begin starts one
// operation and returns its invocation plus the closure that completes it;
// other processes' operations run between the two, so operations overlap.
type sim interface {
	begin(rng *rand.Rand, next func() int64) (op string, arg trace.Value, complete func() trace.Value)
}

// fifo is a correct queue: each operation takes effect when it responds.
type fifo struct{ items []int64 }

func (q *fifo) begin(rng *rand.Rand, next func() int64) (string, trace.Value, func() trace.Value) {
	if rng.Intn(2) == 0 {
		v := next()
		return trace.OpEnq, trace.Int(v), func() trace.Value {
			q.items = append(q.items, v)
			return trace.Unit{}
		}
	}
	return trace.OpDeq, nil, func() trace.Value {
		if len(q.items) == 0 {
			return trace.Empty
		}
		v := q.items[0]
		q.items = q.items[1:]
		return trace.Int(v)
	}
}

// staleFIFO has examples/extsut's seeded bug: a dequeue reads the head when
// it starts and removes an element only when it completes, so overlapping
// dequeues return the same value and the monitor reports NO.
type staleFIFO struct{ items []int64 }

func (q *staleFIFO) begin(rng *rand.Rand, next func() int64) (string, trace.Value, func() trace.Value) {
	if rng.Intn(2) == 0 {
		v := next()
		return trace.OpEnq, trace.Int(v), func() trace.Value {
			q.items = append(q.items, v)
			return trace.Unit{}
		}
	}
	if len(q.items) == 0 {
		return trace.OpDeq, nil, func() trace.Value { return trace.Empty }
	}
	head := q.items[0]
	return trace.OpDeq, nil, func() trace.Value {
		if len(q.items) > 0 {
			q.items = q.items[1:]
		}
		return trace.Int(head)
	}
}

// cell is a correct register.
type cell struct{ v int64 }

func (r *cell) begin(rng *rand.Rand, next func() int64) (string, trace.Value, func() trace.Value) {
	if rng.Intn(2) == 0 {
		v := next()
		return trace.OpWrite, trace.Int(v), func() trace.Value {
			r.v = v
			return trace.Unit{}
		}
	}
	return trace.OpRead, trace.Unit{}, func() trace.Value { return trace.Int(r.v) }
}

// tally is a correct counter.
type tally struct{ n int64 }

func (c *tally) begin(rng *rand.Rand, _ func() int64) (string, trace.Value, func() trace.Value) {
	if rng.Intn(2) == 0 {
		return trace.OpInc, trace.Unit{}, func() trace.Value {
			c.n++
			return trace.Unit{}
		}
	}
	return trace.OpRead, trace.Unit{}, func() trace.Value { return trace.Int(c.n) }
}

// record drives a seeded interleaving of procs logical processes over s and
// returns exactly events recorded events (events must be even). Each pick
// starts an operation on an idle process or completes the pending one; no
// operation starts that could not complete within the budget. The curated
// recording seeds (histories.go) were scanned through this function: a
// change to it, or to the objects above, invalidates them.
func record(s sim, events int, seed int64) trace.Word {
	rec := monitor.NewRecorder(procs)
	rng := rand.New(rand.NewSource(seed))
	counter := int64(0)
	next := func() int64 { counter++; return counter }
	pending := make([]func() trace.Value, procs)
	open := 0
	for rec.Len()+open < events || open > 0 {
		p := rng.Intn(procs)
		switch {
		case pending[p] != nil:
			rec.Respond(p, pending[p]())
			pending[p] = nil
			open--
		case rec.Len()+open+2 <= events:
			op, arg, complete := s.begin(rng, next)
			rec.Invoke(p, op, arg)
			pending[p] = complete
			open++
		}
	}
	return rec.History()
}

// template is a pre-encoded NDJSON line with a hole for the stream id: every
// request and response line of the protocol names its stream first.
type template struct{ pre, post []byte }

// streamHole marks where the stream id goes while a template is encoded.
const streamHole = "@STREAM@"

func newTemplate(v any, newline bool) (template, error) {
	js, err := json.Marshal(v)
	if err != nil {
		return template{}, err
	}
	pre, post, ok := bytes.Cut(js, []byte(streamHole))
	if !ok {
		return template{}, fmt.Errorf("encoded line %s has no stream id", js)
	}
	if newline {
		post = append(post, '\n')
	}
	return template{pre: pre, post: post}, nil
}

// appendTo appends the line for stream id to b.
func (t template) appendTo(b []byte, id string) []byte {
	return append(append(append(b, t.pre...), id...), t.post...)
}

// equal reports whether line is the template's line for stream id.
func (t template) equal(line []byte, id string) bool {
	return len(line) == len(t.pre)+len(id)+len(t.post) &&
		bytes.HasPrefix(line, t.pre) && bytes.HasSuffix(line, t.post) &&
		string(line[len(t.pre):len(line)-len(t.post)]) == id
}

// history is one pooled recorded history with everything a stream of it
// needs: its request lines (open, meta, one per event, close), the response
// lines it must draw (opened, every verdict in (proc, index) order, done),
// and what each verdict judges.
type history struct {
	class  int
	object string
	word   trace.Word
	req    []template
	resp   []template
	// hist[k] is the judged prefix length of the k-th verdict line.
	hist []int
	// verdicts, nos and steps summarize the reference replay; replay is how
	// long that replay took standalone.
	verdicts, nos, steps int
	replay               time.Duration
}

// verdictDue is the offset from a stream's first line to the line the k-th
// verdict's last judged event arrived on: event i is line i+2 (after open
// and meta), and a verdict judging the empty prefix waits on the meta line.
func (h *history) verdictDue(k int) time.Duration {
	return time.Duration(h.hist[k]+1) * lineGap
}

// closeDue is the offset of the close line.
func (h *history) closeDue() time.Duration { return time.Duration(len(h.req)-1) * lineGap }

// pool is the set of distinct histories streams draw from, keyed by class
// and object.
type pool struct {
	byKey map[string][]*history
	all   []*history
}

func poolKey(class int, obj string) string { return fmt.Sprintf("%d/%s", class, obj) }

// mix derives a sub-seed from a seed and a path of indices (SplitMix64
// finalizer), so every pooled history has its own independent stream.
func mix(seed int64, path ...int) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 * uint64(p+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// newPool records the histories for seed, scaled by scale (a pool of scale
// 1 holds lengthClass.pool histories per class and object, at least one),
// and computes each one's reference verdicts with a standalone exp/monitor
// replay. Medium and long histories come from the curated recording seeds,
// one from each of pool-size cost strata, so every seed's pool has about
// the same replay cost.
func newPool(seed int64, scale float64) (*pool, error) {
	p := &pool{byKey: map[string][]*history{}}
	s := monitor.NewSession()
	defer s.Close()
	for ci, c := range classes {
		size := max(1, int(math.Round(float64(c.pool)*scale)))
		for oi, name := range c.objects {
			curated := curatedHistories[c.name+"/"+name]
			rng := rand.New(rand.NewSource(mix(seed, ci, oi)))
			for k := 0; k < size; k++ {
				recSeed := mix(seed, ci, oi, k)
				if curated != nil {
					lo, hi := k*len(curated)/size, (k+1)*len(curated)/size
					recSeed = curated[lo+rng.Intn(hi-lo)]
				}
				h, err := newHistory(s, ci, name, recSeed)
				if err != nil {
					return nil, err
				}
				p.byKey[poolKey(ci, name)] = append(p.byKey[poolKey(ci, name)], h)
				p.all = append(p.all, h)
			}
		}
	}
	return p, nil
}

// newHistory records one history and encodes its request and reference
// response lines.
func newHistory(s *monitor.Session, class int, name string, seed int64) (*history, error) {
	obj := objects[name]
	h := &history{class: class, object: name, word: record(obj.newSim(), classes[class].events, seed)}
	reqs := []serve.Request{
		{Open: &serve.Open{Stream: streamHole, Logic: obj.logic, Object: obj.spec}},
		{Event: &serve.StreamEvent{Stream: streamHole, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: procs}}}},
	}
	for _, sym := range h.word {
		ev, err := trace.EncodeSymbol(sym)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, serve.Request{Event: &serve.StreamEvent{Stream: streamHole, Event: ev}})
	}
	reqs = append(reqs, serve.Request{Close: &serve.CloseStream{Stream: streamHole}})
	for _, r := range reqs {
		t, err := newTemplate(r, true)
		if err != nil {
			return nil, err
		}
		h.req = append(h.req, t)
	}

	resps, err := h.reference(s)
	if err != nil {
		return nil, err
	}
	for _, r := range resps {
		t, err := newTemplate(r, false)
		if err != nil {
			return nil, err
		}
		h.resp = append(h.resp, t)
	}
	return h, nil
}

// monitorConfig is the replay a server runs for a stream of h.
func (h *history) monitorConfig() monitor.Config {
	cfg := monitor.Config{N: procs, History: h.word}
	switch obj := objects[h.object]; obj.logic {
	case "wec":
		cfg.Logic = monitor.LogicWEC
	default:
		cfg.Logic = monitor.LogicLin
		if obj.spec == "queue" {
			cfg.Object = trace.Queue()
		} else {
			cfg.Object = trace.Register()
		}
	}
	return cfg
}

// reference replays h through exp/monitor and renders the response lines a
// server must send for it.
func (h *history) reference(s *monitor.Session) ([]serve.Response, error) {
	start := time.Now()
	res, err := s.Run(h.monitorConfig())
	h.replay = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference replay of a %s %s history: %w", classes[h.class].name, h.object, err)
	}
	out := responses(res, streamHole)
	h.hist, h.verdicts, h.nos, h.steps = nil, 0, res.TotalNO(), res.Steps
	for _, r := range out {
		if r.Verdict != nil {
			h.hist = append(h.hist, r.Verdict.Hist)
			h.verdicts++
		}
	}
	return out, nil
}

// responses renders a replay's response lines for stream in the server's
// order: opened, every verdict in (proc, index) order, done.
func responses(res *monitor.Result, stream string) []serve.Response {
	out := []serve.Response{{Opened: &serve.Opened{Stream: stream}}}
	verdicts := 0
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			hist := 0
			if k < len(res.HistAt[p]) {
				hist = res.HistAt[p][k]
			}
			verdicts++
			out = append(out, serve.Response{Verdict: &serve.VerdictEvent{
				Stream: stream, Proc: p, Index: k, Verdict: v.String(), Step: res.StepAt[p][k], Hist: hist,
			}})
		}
	}
	return append(out, serve.Response{Done: &serve.Done{
		Stream: stream, Events: len(res.History), Steps: res.Steps, Verdicts: verdicts, NO: res.TotalNO(),
	}})
}

// arrival is one stream of an open-loop phase.
type arrival struct {
	at   time.Duration // due time of the open line, from the phase start
	hist *history
}

// classSequence returns the classes of n consecutive streams, interleaved
// so that every prefix keeps the class shares as closely as whole streams
// allow: a phase of a given length always carries the same class counts,
// whatever the seed.
func classSequence(n int) []int {
	seq := make([]int, n)
	given := make([]int, len(classes))
	for i := range seq {
		best, lag := 0, math.Inf(-1)
		for c, cl := range classes {
			if l := float64((i+1)*cl.share)/classBlock - float64(given[c]); l > lag {
				best, lag = c, l
			}
		}
		seq[i] = best
		given[best]++
	}
	return seq
}

// picker hands out the histories of successive streams: per class the
// objects in turn, and per object its pooled histories in turn, each
// starting at a seeded offset. Any run of streams therefore carries the
// class's object mix and the pool's histories as evenly as whole streams
// allow.
type picker struct {
	p    *pool
	obj  []int          // per class: the next object
	hist map[string]int // per pool key: the next history
}

func (p *pool) picker(rng *rand.Rand) *picker {
	pk := &picker{p: p, obj: make([]int, len(classes)), hist: map[string]int{}}
	for ci, c := range classes {
		pk.obj[ci] = rng.Intn(len(c.objects))
		for _, name := range c.objects {
			pk.hist[poolKey(ci, name)] = rng.Intn(len(p.byKey[poolKey(ci, name)]))
		}
	}
	return pk
}

// pick returns the history of the next stream of class c.
func (pk *picker) pick(c int) *history {
	objs := classes[c].objects
	key := poolKey(c, objs[pk.obj[c]%len(objs)])
	pk.obj[c]++
	hs := pk.p.byKey[key]
	h := hs[pk.hist[key]%len(hs)]
	pk.hist[key]++
	return h
}

// openLoop draws one open-loop phase: streams arriving at rate events per
// second over window, as a seeded Poisson process conditioned on its count
// (sorted uniform arrival times). The count and class mix follow from the
// rate alone; the seed picks the arrival times.
func (pk *picker) openLoop(rate float64, window time.Duration, rng *rand.Rand) []arrival {
	n := int(math.Round(rate / meanEvents() * window.Seconds()))
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]arrival, n)
	for i, c := range classSequence(n) {
		out[i] = arrival{at: times[i], hist: pk.pick(c)}
	}
	return out
}

// closedLoop returns the histories of n back-to-back streams.
func (pk *picker) closedLoop(n int) []*history {
	out := make([]*history, n)
	for i, c := range classSequence(n) {
		out[i] = pk.pick(c)
	}
	return out
}

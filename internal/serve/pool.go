package serve

import (
	"errors"
	"hash/fnv"
	"sync"

	"github.com/drv-go/drv/exp/monitor"
)

// job is one monitored replay: a closed stream's history plus the channel
// its responses go back on. A job with a note is a pass-through instead: the
// worker delivers that one response, in its place in the shard's order.
type job struct {
	stream string
	cfg    monitor.Config
	note   *Response
	// respond delivers one response line toward the job's connection; it
	// blocks when the connection's outbound queue is full (backpressure: a
	// slow client stalls the shards its streams map to, nothing else).
	respond func(Response)
	// done releases the connection's in-flight accounting.
	done func()
}

// pool is the sharded session pool: each shard is one worker goroutine
// owning one exp/monitor.Session, fed by a bounded job queue. Streams are
// keyed to shards by stream id, so every run of a given id executes on the
// same warm session and runs of one id never reorder. Session pooling never
// changes verdict bytes (the pooled-vs-fresh contract of the monitor core),
// so served output is byte-identical across pool sizes.
type pool struct {
	shards []chan *job
	wg     sync.WaitGroup
}

// newPool starts shards workers with the given per-shard queue depth.
func newPool(shards, depth int) *pool {
	p := &pool{shards: make([]chan *job, shards)}
	for i := range p.shards {
		ch := make(chan *job, depth)
		p.shards[i] = ch
		p.wg.Add(1)
		go p.worker(ch)
	}
	return p
}

// shard returns the job queue stream id maps to.
func (p *pool) shard(stream string) chan<- *job {
	h := fnv.New32a()
	h.Write([]byte(stream))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// stop closes the shard queues and waits for the workers to drain them. Call
// only after every enqueuer has exited.
func (p *pool) stop() {
	for _, ch := range p.shards {
		close(ch)
	}
	p.wg.Wait()
}

func (p *pool) worker(jobs <-chan *job) {
	defer p.wg.Done()
	s := monitor.NewSession()
	defer s.Close()
	for j := range jobs {
		if j.note != nil {
			j.respond(*j.note)
		} else {
			runJob(s, j)
		}
		j.done()
	}
}

// runJob replays one history and streams its verdicts back: every verdict in
// (proc, index) order, then the done summary — a deterministic byte sequence
// for a given input. A replay cut by the stream's MaxSteps still delivers
// its partial verdicts, flagged Truncated; any other replay error becomes a
// stream-level error line.
func runJob(s *monitor.Session, j *job) {
	res, err := s.Run(j.cfg)
	truncated := false
	if err != nil {
		if !errors.Is(err, monitor.ErrTruncated) || res == nil {
			j.respond(Response{Error: &StreamError{Stream: j.stream, Msg: err.Error()}})
			return
		}
		truncated = true
	}
	verdicts, no := 0, 0
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			verdicts++
			if v == monitor.No {
				no++
			}
			hist := 0
			if k < len(res.HistAt[p]) {
				hist = res.HistAt[p][k]
			}
			j.respond(Response{Verdict: &VerdictEvent{
				Stream:  j.stream,
				Proc:    p,
				Index:   k,
				Verdict: v.String(),
				Step:    res.StepAt[p][k],
				Hist:    hist,
			}})
		}
	}
	j.respond(Response{Done: &Done{
		Stream:    j.stream,
		Events:    len(res.History),
		Steps:     res.Steps,
		Verdicts:  verdicts,
		NO:        no,
		Truncated: truncated,
	}})
}

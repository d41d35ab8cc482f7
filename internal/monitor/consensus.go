package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// NewConsensusOrder returns a monitor that uses unbounded consensus power:
// processes agree — via a log of wait-free consensus objects built on
// compare-and-swap — on a single global total order of all completed
// operations, and every process validates that agreed sequential order
// against the object specification.
//
// The monitor realizes the paper's remark that "our impossibility results
// hold under operations with arbitrarily high consensus number [30]":
// despite deciding a common total order (something read/write registers
// cannot do), the order is built from what processes observed, not from the
// real-time order of events at the adversary — so the Lemma 5.1 experiment
// drives it to identical verdicts on a linearizable execution and a
// non-linearizable one. Consensus power does not buy real-time visibility.
func NewConsensusOrder(obj trace.Object, kind adversary.ArrayKind) Monitor {
	return NewMonitor("consensus-order/"+obj.Name()+"/"+kindName(kind), func(n int) []Logic {
		board := newTripleBoard(n, kind)
		log := &consLog{}
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &consensusLogic{obj: obj, board: board, log: log, known: map[trace.OpID]trace.Triple{}}
		}
		return logics
	})
}

// consLog is an unbounded array of single-shot consensus objects; slot k
// decides the identity of the k-th operation in the agreed global order.
type consLog struct {
	cells []*mem.Consensus
}

// cell returns slot k, allocating as needed. Allocation is safe under the
// cooperative scheduler (one process runs at a time).
func (cl *consLog) cell(k int) *mem.Consensus {
	for len(cl.cells) <= k {
		cl.cells = append(cl.cells, mem.NewConsensus())
	}
	return cl.cells[k]
}

// opIDEncoding packs an operation identifier into a consensus proposal.
const opIDStride = 1 << 20

func encodeOpID(id trace.OpID) int64 { return int64(id.Proc)*opIDStride + int64(id.Idx) + 1 }
func decodeOpID(v int64) trace.OpID {
	v--
	return trace.OpID{Proc: int(v / opIDStride), Idx: int(v % opIDStride)}
}

// consensusLogic is the per-process state of the consensus-order monitor.
type consensusLogic struct {
	obj   trace.Object
	board *tripleBoard
	log   *consLog

	inv     trace.Symbol
	count   int
	tbuf    []trace.Triple // publish's delta buffer, reused per round
	known   map[trace.OpID]trace.Triple
	agreed  []trace.OpID // the process's view of the decided log prefix
	flag    bool
	verdict Verdict
}

// PreSend implements Line 02.
func (l *consensusLogic) PreSend(_ *sched.Proc, inv trace.Symbol) { l.inv = inv }

// PostRecv implements Line 05: publish the completed operation, then append
// it to the agreed global order by proposing it at successive log slots
// until some slot decides it.
func (l *consensusLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	id := resp.ID
	if id == (trace.OpID{}) {
		id = trace.OpID{Proc: p.ID, Idx: l.count}
	}
	l.count++
	l.tbuf = l.board.publish(p, trace.Triple{ID: id, Inv: l.inv, Res: resp.Sym}, l.tbuf)
	for _, tr := range l.tbuf {
		l.known[tr.ID] = tr
	}
	// Catch up with the decided prefix, then install our operation at the
	// first free slot (wait-free: each retry decides some operation, and
	// only finitely many precede ours).
	slot := len(l.agreed)
	for {
		decided := l.log.cell(slot).Propose(p, encodeOpID(id))
		decID := decodeOpID(decided)
		l.agreed = append(l.agreed, decID)
		slot++
		if decID == id {
			break
		}
	}
	l.validate()
}

// validate replays the agreed order against the specification; the verdict
// is NO once the agreed order is invalid (sticky — the log is append-only).
func (l *consensusLogic) validate() {
	if l.flag {
		l.verdict = No
		return
	}
	st := l.obj.Init()
	for _, id := range l.agreed {
		tr, ok := l.known[id]
		if !ok {
			break // not yet resolvable; validate the visible prefix only
		}
		next, ret, ok := st.Apply(tr.Inv.Op, tr.Inv.Val)
		if !ok || (tr.Res.Val != nil && !ret.Equal(tr.Res.Val)) {
			l.flag = true
			l.verdict = No
			return
		}
		st = next
	}
	l.verdict = Yes
}

// Decide implements Line 06.
func (l *consensusLogic) Decide(*sched.Proc) Verdict {
	if l.verdict == 0 {
		return Yes
	}
	return l.verdict
}

package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// NewWEC returns the algorithm of Figure 5, which weakly decides WEC_COUNT
// (Lemma 5.3): each process announces its inc invocations in the shared
// array INCS before sending them, snapshots INCS after every response, and
// reports NO when one of the weak-eventual-counter clauses is (currently)
// violated — permanently for the safety clauses (1)–(2) via the local flag,
// transiently for the convergence clause (3).
//
// kind selects the INCS array implementation (Section 6.2's snapshot-versus-
// collect ablation).
func NewWEC(kind adversary.ArrayKind) Monitor {
	return NewMonitor("wec-fig5/"+kindName(kind), func(n int) []Logic {
		incs := adversary.NewArray(kind, n)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &wecLogic{incs: incs}
		}
		return logics
	})
}

func kindName(kind adversary.ArrayKind) string {
	switch kind {
	case adversary.ArrayAADGMS:
		return "aadgms"
	case adversary.ArrayCollect:
		return "collect"
	default:
		return "atomic"
	}
}

// wecLogic is the per-process state of Figure 5.
type wecLogic struct {
	incs mem.Array[int]

	prevRead int64
	prevIncs int
	count    int
	flag     bool

	currRead int64
	currIncs int
	ownIncs  int
	isRead   bool
}

// PreSend implements Line 02 of Figure 5: announce inc invocations.
func (l *wecLogic) PreSend(p *sched.Proc, inv trace.Symbol) {
	if inv.Op == trace.OpInc {
		l.count++
		l.incs.Write(p, p.ID, l.count)
	}
}

// PostRecv implements Line 05: snapshot INCS and record read responses.
func (l *wecLogic) PostRecv(p *sched.Proc, resp trace.Response) {
	snap := l.incs.Snapshot(p)
	l.currIncs = 0
	for _, c := range snap {
		l.currIncs += c
	}
	l.ownIncs = snap[p.ID]
	l.isRead = resp.Sym.Op == trace.OpRead
	if l.isRead {
		l.currRead = int64(resp.Sym.Val.(trace.Int))
	}
}

// Decide implements Line 06.
func (l *wecLogic) Decide(_ *sched.Proc) Verdict {
	defer func() {
		l.prevRead = l.currRead
		l.prevIncs = l.currIncs
	}()
	switch {
	case l.flag:
		return No
	case l.isRead && (l.currRead < int64(l.ownIncs) || l.currRead < l.prevRead):
		// Clause (1) or (2) violated: permanent. The isRead guard makes
		// explicit what Figure 5 leaves implicit — curr_read is only
		// meaningful once the process has received a read response.
		l.flag = true
		return No
	case l.currRead != int64(l.currIncs) || l.prevIncs < l.currIncs:
		// Clause (3) not yet witnessed: transient.
		return No
	default:
		return Yes
	}
}

package monitor

import (
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

// Stabilize is the transformation of Figure 2 (Lemma 4.1): wrap a strong
// decider so that once any process reports NO, eventually every process
// reports NO forever. A shared FLAG register remembers the first NO.
func Stabilize(inner Monitor) Monitor {
	return NewMonitor("stabilize-fig2("+inner.Name()+")", func(n int) []Logic {
		flag := &mem.Register[bool]{}
		inners := inner.New(n)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = &stabilizeLogic{inner: inners[i], flag: flag}
		}
		return logics
	})
}

type stabilizeLogic struct {
	inner Logic
	flag  *mem.Register[bool]
}

func (l *stabilizeLogic) Unwrap() Logic                           { return l.inner }
func (l *stabilizeLogic) PreSend(p *sched.Proc, inv trace.Symbol) { l.inner.PreSend(p, inv) }
func (l *stabilizeLogic) PostRecv(p *sched.Proc, r trace.Response) {
	l.inner.PostRecv(p, r)
}

func (l *stabilizeLogic) Decide(p *sched.Proc) Verdict {
	d := l.inner.Decide(p)
	if l.flag.Read(p) {
		return No
	}
	if d == No {
		l.flag.Write(p, true)
	}
	return d
}

// AmplifyWAD is the transformation of Figure 3 (Lemma 4.2): wrap a weak-all
// decider so that whenever the input is outside the language, every process
// reports NO infinitely often. Each process publishes how many NOs it has
// produced in the shared array C; a process reports NO exactly when some
// entry of C grew since its previous snapshot.
func AmplifyWAD(inner Monitor, kind adversary.ArrayKind) Monitor {
	return NewMonitor("amplify-wad-fig3("+inner.Name()+")", func(n int) []Logic {
		return counterLogics(inner.New(n), n, kind, false)
	})
}

// AmplifyWOD is the transformation of Figure 4 (Lemma 4.3): wrap a weak-one
// decider so that whenever the input is in the language, eventually every
// process reports YES forever. A process reports YES exactly when some entry
// of C did not change since its previous snapshot.
func AmplifyWOD(inner Monitor, kind adversary.ArrayKind) Monitor {
	return NewMonitor("amplify-wod-fig4("+inner.Name()+")", func(n int) []Logic {
		return counterLogics(inner.New(n), n, kind, true)
	})
}

func counterLogics(inners []Logic, n int, kind adversary.ArrayKind, wod bool) []Logic {
	c := adversary.NewArray(kind, n)
	logics := make([]Logic, n)
	for i := range logics {
		logics[i] = &counterLogic{inner: inners[i], c: c, wod: wod}
	}
	return logics
}

type counterLogic struct {
	inner Logic
	c     mem.Array[int]
	snap  *[]int // the snapshot buffer, reused per round
	prev  *[]int // the previous round's snapshot
	wod   bool   // Figure 4 semantics instead of Figure 3
}

// attach claims the snapshot buffer and the previous snapshot, which starts
// as C's initial all-zero state.
func (l *counterLogic) attach(sc *scratch, i int) {
	ints := &sc.procs[i].ints
	l.snap, l.prev = ints.claim(), ints.claim()
	*l.prev = append((*l.prev)[:0], make([]int, l.c.Len())...)
}

func (l *counterLogic) Unwrap() Logic { return l.inner }

func (l *counterLogic) PreSend(p *sched.Proc, inv trace.Symbol) { l.inner.PreSend(p, inv) }
func (l *counterLogic) PostRecv(p *sched.Proc, r trace.Response) {
	l.inner.PostRecv(p, r)
}

func (l *counterLogic) Decide(p *sched.Proc) Verdict {
	d := l.inner.Decide(p)
	prev := *l.prev
	if d == No {
		l.c.Write(p, p.ID, prev[p.ID]+1)
	}
	snap := l.c.SnapshotInto(p, *l.snap)
	*l.snap = snap
	defer copy(prev, snap)
	if l.wod {
		// Figure 4: YES when some entry stabilized.
		for j := range snap {
			if snap[j] == prev[j] {
				return Yes
			}
		}
		return No
	}
	// Figure 3: NO when some entry grew.
	for j := range snap {
		if snap[j] > prev[j] {
			return No
		}
	}
	return Yes
}

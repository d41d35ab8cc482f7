package monitor

// The order-free logics (ecledLogic, naiveOrderLogic) feed their checkers
// only each round's newly collected triples. The reference composition lays
// out every collected triple with orderFreeWord each round and re-runs the
// one-shot check; the shadow monitors below run the real logics and compare
// every round's verdict with it.

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/check"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/sched"
)

// orderFreeWord lays out the collected operations with every invocation
// before every response, erasing all cross-process real-time order while
// keeping per-process operation order (IDs are per-process indices). The
// order of the triples does not matter.
func orderFreeWord(triples []trace.Triple) trace.Word {
	byProc := map[int][]trace.Triple{}
	maxProc := 0
	for _, tr := range triples {
		byProc[tr.ID.Proc] = append(byProc[tr.ID.Proc], tr)
		if tr.ID.Proc > maxProc {
			maxProc = tr.ID.Proc
		}
	}
	var out trace.Word
	for p := 0; p <= maxProc; p++ {
		trs := byProc[p]
		// Per-process order by identifier index; one operation at a time so
		// the local word alternates invocation/response.
		for i := 0; i < len(trs); i++ {
			for _, tr := range trs {
				if tr.ID.Idx == i {
					out = append(out, tr.Inv, tr.Res)
				}
			}
		}
	}
	return out
}

// wholeECLedger answers clause (1) on w as one batch: a fresh checker fed
// all of w before its one OK.
func wholeECLedger(w trace.Word) bool {
	c := check.NewECLedger()
	for _, s := range w {
		c.Append(s)
	}
	return c.OK()
}

// orderFreeRef accumulates one process's collected set for the reference
// check, reading it from the board: the triples the process's last snapshot
// shows. It also pins the OpID contract the logics rely on: each writer's
// triple at log index i is its operation i, so the collection order keeps
// per-process order, orderFreeWord drops nothing, and an agreed operation
// can be looked up in the logs.
type orderFreeRef struct {
	all  []trace.Triple
	seen []int // per writer, how many of its triples all holds
	fail func(string)
}

// sync adds the triples of process p's collected set that all lacks.
func (r *orderFreeRef) sync(p int, b *tripleBoard) {
	snap := b.snaps[p]
	if r.seen == nil {
		r.seen = make([]int, len(snap))
	}
	for j, k := range snap {
		for i, tr := range b.logs[j][r.seen[j]:k] {
			if want := (trace.OpID{Proc: j, Idx: r.seen[j] + i}); tr.ID != want || tr.Inv.Proc != j || tr.Res.Proc != j {
				r.fail(fmt.Sprintf("process %d collected %v (%v, %v) where operation %v was due",
					p, tr.ID, tr.Inv, tr.Res, want))
			}
		}
		r.all = append(r.all, b.logs[j][r.seen[j]:k]...)
		r.seen[j] = k
	}
}

// ecledShadow is ecledLogic with every round's clause (1) flag compared to
// a fresh check.ECLedger's answer on orderFreeWord of every collected triple,
// fed whole.
type ecledShadow struct {
	*ecledLogic
	ref  orderFreeRef
	flag bool
}

func (s *ecledShadow) PostRecv(p *sched.Proc, resp trace.Response) {
	s.ecledLogic.PostRecv(p, resp)
	s.ref.sync(p.ID, s.board)
	s.flag = s.flag || !wholeECLedger(orderFreeWord(s.ref.all))
	if s.ecledLogic.flag != s.flag || (s.flag && s.verdict != No) {
		s.ref.fail(fmt.Sprintf("process %d after %d triples: flag %v verdict %v, reference flag %v",
			p.ID, len(s.ref.all), s.ecledLogic.flag, s.verdict, s.flag))
	}
}

// naiveShadow is naiveOrderLogic with every round's verdict compared to
// SeqConsistent over orderFreeWord of every collected triple.
type naiveShadow struct {
	*naiveOrderLogic
	obj trace.Object
	ref orderFreeRef
}

func (s *naiveShadow) PostRecv(p *sched.Proc, resp trace.Response) {
	s.naiveOrderLogic.PostRecv(p, resp)
	s.ref.sync(p.ID, s.board)
	want := No
	if check.SeqConsistent(s.obj, orderFreeWord(s.ref.all)) {
		want = Yes
	}
	if s.verdict != want {
		s.ref.fail(fmt.Sprintf("process %d after %d triples: verdict %v, reference %v",
			p.ID, len(s.ref.all), s.verdict, want))
	}
}

// newShadowECLed is NewECLed with every logic shadowed by the reference;
// fail receives each mismatch.
func newShadowECLed(kind adversary.ArrayKind, fail func(string)) Monitor {
	inner := NewECLed(kind)
	return NewMonitor("shadow-"+inner.Name(), func(n int) []Logic {
		logics := inner.New(n)
		for i, l := range logics {
			logics[i] = &ecledShadow{ecledLogic: l.(*ecledLogic), ref: orderFreeRef{fail: fail}}
		}
		return logics
	})
}

// newShadowNaiveOrder is NewNaiveOrder with every logic shadowed by the
// reference; fail receives each mismatch.
func newShadowNaiveOrder(obj trace.Object, kind adversary.ArrayKind, fail func(string)) Monitor {
	inner := NewNaiveOrder(obj, kind)
	return NewMonitor("shadow-"+inner.Name(), func(n int) []Logic {
		logics := inner.New(n)
		for i, l := range logics {
			logics[i] = &naiveShadow{naiveOrderLogic: l.(*naiveOrderLogic), obj: obj, ref: orderFreeRef{fail: fail}}
		}
		return logics
	})
}

// TestOrderFreeLogicsMatchReferenceOnBoardRuns runs both order-free logics
// over every ArrayKind under randomized schedules, against in- and
// out-of-language sources, and compares every round with the reference.
// The reference re-checks the whole history every round, so the runs stay
// shorter than naiveSteps.
func TestOrderFreeLogicsMatchReferenceOnBoardRuns(t *testing.T) {
	steps := min(naiveSteps, 600)
	for _, kind := range arrayKinds {
		for seed := int64(1); seed <= 3; seed++ {
			var bad []string
			fail := func(msg string) { bad = append(bad, msg) }
			ecledNOs, naiveNOs := 0, 0
			for _, lb := range lang.ECLed().Sources(testProcs, seed) {
				res := runUntimedSteps(newShadowECLed(kind, fail), lb.New(), seed, steps)
				ecledNOs += res.TotalNO()
			}
			for _, l := range []lang.Lang{lang.SCReg(), lang.SCLed()} {
				for _, lb := range l.Sources(testProcs, seed) {
					res := runUntimedSteps(newShadowNaiveOrder(l.Object, kind, fail), lb.New(), seed, steps)
					naiveNOs += res.TotalNO()
				}
			}
			if len(bad) > 0 {
				t.Fatalf("%s seed %d: %d mismatches, first: %s", kind, seed, len(bad), bad[0])
			}
			if ecledNOs == 0 || naiveNOs == 0 {
				t.Errorf("%s seed %d: %d ecled and %d naive-order NO verdicts; the differential must compare violations of both",
					kind.String(), seed, ecledNOs, naiveNOs)
			}
		}
	}
}

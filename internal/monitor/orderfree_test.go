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

// orderFreeRef accumulates one process's collected triples for the
// reference check. It also pins what the incremental feeds rely on: the
// board delivers each writer's triples once each, in index order from 0, so
// the collection order keeps per-process order and orderFreeWord drops
// nothing.
type orderFreeRef struct {
	all  []trace.Triple
	next map[int]int // per writer, the index of its next expected triple
	fail func(string)
}

func (r *orderFreeRef) add(p int, delta []trace.Triple) {
	if r.next == nil {
		r.next = map[int]int{}
	}
	for _, tr := range delta {
		if want := r.next[tr.ID.Proc]; tr.ID.Idx != want || tr.Inv.Proc != tr.ID.Proc || tr.Res.Proc != tr.ID.Proc {
			r.fail(fmt.Sprintf("process %d collected %v (%v, %v) where operation %d of process %d was due",
				p, tr.ID, tr.Inv, tr.Res, want, tr.ID.Proc))
		}
		r.next[tr.ID.Proc]++
	}
	r.all = append(r.all, delta...)
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
	s.ref.add(p.ID, s.board.chain(p.ID).delta)
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
	s.ref.add(p.ID, s.board.chain(p.ID).delta)
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

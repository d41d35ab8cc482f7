package monitor

// The triple board hands each process only the triples it has not collected
// yet, which is exact only if a process's successive snapshots of the
// board's counts never go back; and V_O's round then costs only the view
// groups its new triples touch. These tests pin both, for every ArrayKind.

import (
	"fmt"
	"slices"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/mem"
	"github.com/drv-go/drv/internal/sched"
)

var arrayKinds = []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayAADGMS, adversary.ArrayCollect}

// snapshotRecorder wraps a board's counts array and records, per reader,
// whether a snapshot ever showed fewer triples of some process than that
// reader's previous snapshot did.
type snapshotRecorder struct {
	mem.Array[int]
	last      map[int][]int
	snapshots int
	shrank    []string
}

func (r *snapshotRecorder) Snapshot(p *sched.Proc) []int {
	snap := r.Array.Snapshot(p)
	r.snapshots++
	prev := r.last[p.ID]
	for j, c := range snap {
		if j < len(prev) && c < prev[j] {
			r.shrank = append(r.shrank, fmt.Sprintf("process %d: %v after %v", p.ID, snap, prev))
		}
	}
	r.last[p.ID] = slices.Clone(snap)
	return snap
}

// predictiveSetup builds V_O's LIN_REG logics over a board of the given
// kind, letting the test wrap the board and each logic.
func predictiveSetup(tau *adversary.Timed, kind adversary.ArrayKind,
	onBoard func(*tripleBoard), wrap func(*predictiveLogic) Logic) Monitor {
	obj := lang.LinReg().Object
	return NewMonitor("probe-fig8/"+kindName(kind), func(n int) []Logic {
		board := newTripleBoard(n, kind)
		onBoard(board)
		logics := make([]Logic, n)
		for i := range logics {
			logics[i] = wrap(&predictiveLogic{n: n, board: board, tau: tau, obj: obj, realTime: true})
		}
		return logics
	})
}

// runKind runs the monitor mk builds against a LIN_REG source under Aτ over
// an array of the given kind, with a biased schedule. The step bound is
// fixed, even under -short, because the share of each sketch a round
// re-emits shrinks as the sketch grows.
func runKind(kind adversary.ArrayKind, seed int64, mk func(*adversary.Timed) Monitor) *Result {
	adv := adversary.NewA(testProcs, lang.LinReg().Sources(testProcs, seed)[int(seed)%2].New())
	tau := adversary.NewTimed(testProcs, adv, kind)
	return Run(Config{
		N:       testProcs,
		Monitor: mk(tau),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return tau, []int{adv.Register(rt)}
		},
		Policy:   func(aux []int) sched.Policy { return sched.Biased(seed, aux[0], 0.5) },
		MaxSteps: 4000,
	})
}

// TestTripleBoardSnapshotsMonotone pins the fact publish's deltas rest on:
// for every ArrayKind, each reader's successive snapshots of the board's
// counts are pointwise non-decreasing.
func TestTripleBoardSnapshotsMonotone(t *testing.T) {
	for _, kind := range arrayKinds {
		for seed := int64(1); seed <= 4; seed++ {
			rec := &snapshotRecorder{last: map[int][]int{}}
			runKind(kind, seed, func(tau *adversary.Timed) Monitor {
				return predictiveSetup(tau, kind,
					func(b *tripleBoard) { rec.Array = b.counts; b.counts = rec },
					func(l *predictiveLogic) Logic { return l })
			})
			if len(rec.shrank) > 0 {
				t.Fatalf("%s seed %d: a reader's snapshot went back: %v", kindName(kind), seed, rec.shrank[0])
			}
			if rec.snapshots < 100 {
				t.Errorf("%s seed %d: %d snapshots; the run is too short to interleave publishers",
					kindName(kind), seed, rec.snapshots)
			}
		}
	}
}

// roundProbe is predictiveLogic checking each round's re-emission: the
// prefix the builder reports unchanged really is, and a round whose new
// triples all sort after the ones already collected re-emits at most the
// previous sketch's last view group plus what the new triples add.
type roundProbe struct {
	*predictiveLogic
	last   trace.Word // the last successfully built sketch
	maxKey [3]int     // the greatest (view total, process, index) collected
	stats  *roundStats
}

type roundStats struct {
	rounds, appendOnly int
	emitted, reemitted int    // symbols of every sketch, and of their changed suffixes
	bad                string // the first violation; the test reports it after the run
}

func (l *roundProbe) PostRecv(p *sched.Proc, resp trace.Response) {
	h, err := l.round(p, resp)
	appendOnly := true
	for _, tr := range l.tbuf {
		k := [3]int{tr.View.Total(), tr.ID.Proc, tr.ID.Idx}
		appendOnly = appendOnly && slices.Compare(k[:], l.maxKey[:]) > 0
		if slices.Compare(k[:], l.maxKey[:]) > 0 {
			l.maxKey = k
		}
	}
	if err != nil {
		l.verdict = Yes // as predictiveLogic does on incomparable views
		return
	}
	same := l.same
	if same > len(l.last) || !h[:same].Equal(l.last[:same]) {
		l.stats.fail(fmt.Sprintf("process %d: builder reports %d symbols unchanged, but the last sketch was\n%v\nand this one is\n%v",
			p.ID, same, l.last, h))
	}
	if appendOnly {
		l.stats.appendOnly++
		if start := lastGroupStart(l.last); same < start {
			l.stats.fail(fmt.Sprintf("process %d: an append-only round re-emitted from %d, before the last view group at %d of\n%v",
				p.ID, same, start, l.last))
		}
	}
	l.stats.rounds++
	l.stats.emitted += len(h)
	l.stats.reemitted += len(h) - same
	l.last = append(l.last[:0], h...)
	l.verdict = No
	if l.accept(h) {
		l.verdict = Yes
	}
}

func (s *roundStats) fail(msg string) {
	if s.bad == "" {
		s.bad = msg
	}
}

// lastGroupStart returns where a sketch's last view group begins: a group is
// the view's fresh invocations followed by its responses.
func lastGroupStart(w trace.Word) int {
	i := len(w)
	for i > 0 && w[i-1].Kind == trace.Res {
		i--
	}
	for i > 0 && w[i-1].Kind == trace.Inv {
		i--
	}
	return i
}

// TestPredictiveRoundCostTracksNewTriples runs V_O over each ArrayKind with
// every round checked by roundProbe, and pins that the symbols re-emitted
// per round are a small share of the sketches built.
func TestPredictiveRoundCostTracksNewTriples(t *testing.T) {
	for _, kind := range arrayKinds {
		stats := &roundStats{}
		for seed := int64(1); seed <= 4; seed++ {
			runKind(kind, seed, func(tau *adversary.Timed) Monitor {
				return predictiveSetup(tau, kind, func(*tripleBoard) {},
					func(l *predictiveLogic) Logic { return &roundProbe{predictiveLogic: l, stats: stats} })
			})
		}
		if stats.bad != "" {
			t.Fatalf("%s: %s", kindName(kind), stats.bad)
		}
		t.Logf("%s: %d rounds, %d append-only; re-emitted %d of %d sketch symbols",
			kindName(kind), stats.rounds, stats.appendOnly, stats.reemitted, stats.emitted)
		if stats.appendOnly == 0 {
			t.Errorf("%s: no append-only round", kindName(kind))
		}
		if 10*stats.reemitted > stats.emitted {
			t.Errorf("%s: re-emitted %d of %d sketch symbols, want at most a tenth",
				kindName(kind), stats.reemitted, stats.emitted)
		}
	}
}

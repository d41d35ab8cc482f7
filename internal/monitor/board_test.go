package monitor

// The triple board hands each process only the triples it has not collected
// yet, which is exact only if a process's successive snapshots of the
// board's counts never go back; V_O's round then costs only the view groups
// its new triples touch, and an order-free logic's round only its new
// triples. These tests pin all three, for every ArrayKind.

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

func (r *snapshotRecorder) SnapshotInto(p *sched.Proc, dst []int) []int {
	snap := r.Array.SnapshotInto(p, dst)
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
	return NewMonitor("probe-fig8/"+kind.String(), func(n int) []Logic {
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
				t.Fatalf("%s seed %d: a reader's snapshot went back: %v", kind, seed, rec.shrank[0])
			}
			if rec.snapshots < 100 {
				t.Errorf("%s seed %d: %d snapshots; the run is too short to interleave publishers",
					kind, seed, rec.snapshots)
			}
		}
	}
}

// roundProbe is predictiveLogic checking each round's re-emission: the
// prefix the builder reports unchanged really is, and a round whose new
// triples all sort after the ones its chain already held re-emits at most
// the chain's previous sketch's last view group plus what the new triples
// add. It also counts the symbols each round appends to the chain's
// checker, which must stay within what the builder re-emitted: the
// checker's Len() after the round, less the prefix it kept. A checker keeps
// its history unless it resets, and a reset calls its object's Init, which
// the probe's object counts, so a round with a reset appended the whole
// sketch.
type roundProbe struct {
	*predictiveLogic
	stats *roundStats
}

// chainProbe is what the probes know of one chain.
type chainProbe struct {
	last   trace.Word // the last successfully built sketch, the history the checker holds
	maxKey [3]int     // the greatest (view total, process, index) the chain holds
}

type roundStats struct {
	chains             map[*chain]*chainProbe
	inits              int // Init calls on the checkers' objects: their resets
	rounds, appendOnly int
	emitted, reemitted int    // symbols of every sketch, and of their changed suffixes
	fed                int    // symbols appended to the checkers
	bad                string // the first violation; the test reports it after the run
}

// initCounter is an object that counts its Init calls.
type initCounter struct {
	trace.Object
	inits *int
}

func (o initCounter) Init() trace.State {
	*o.inits++
	return o.Object.Init()
}

// newRoundProbe wraps l, giving the checker its chain borrows an object
// that counts resets.
func newRoundProbe(l *predictiveLogic, stats *roundStats) *roundProbe {
	l.obj = initCounter{Object: l.obj, inits: &stats.inits}
	return &roundProbe{predictiveLogic: l, stats: stats}
}

func (l *roundProbe) PostRecv(p *sched.Proc, resp trace.Response) {
	h, err := l.round(p, resp)
	c := l.chain
	cp := l.stats.chains[c]
	if cp == nil {
		cp = &chainProbe{}
		l.stats.chains[c] = cp
	}
	appendOnly := true
	for _, tr := range c.delta {
		k := [3]int{tr.View.Total(), tr.ID.Proc, tr.ID.Idx}
		appendOnly = appendOnly && slices.Compare(k[:], cp.maxKey[:]) > 0
		if slices.Compare(k[:], cp.maxKey[:]) > 0 {
			cp.maxKey = k
		}
	}
	if err != nil {
		l.verdict = Yes // as predictiveLogic does on incomparable views
		return
	}
	same := c.same
	if same > len(cp.last) || !h[:same].Equal(cp.last[:same]) {
		l.stats.fail(fmt.Sprintf("process %d: builder reports %d symbols unchanged, but the chain's last sketch was\n%v\nand this one is\n%v",
			p.ID, same, cp.last, h))
	}
	if appendOnly {
		l.stats.appendOnly++
		if start := lastGroupStart(cp.last); same < start {
			l.stats.fail(fmt.Sprintf("process %d: an append-only round re-emitted from %d, before the last view group at %d of\n%v",
				p.ID, same, start, cp.last))
		}
	}
	l.stats.rounds++
	l.stats.emitted += len(h)
	l.stats.reemitted += len(h) - same
	held, inits := 0, l.stats.inits
	if c.chk != nil {
		held = c.chk.Len()
	}
	if held != len(cp.last) {
		l.stats.fail(fmt.Sprintf("process %d: the checker holds %d symbols, the chain's last sketch has %d", p.ID, held, len(cp.last)))
	}
	l.verdict = No
	if l.accept(h) {
		l.verdict = Yes
	}
	kept := 0
	if l.stats.inits == inits {
		for kept < len(cp.last) && kept < len(h) && cp.last[kept].Equal(h[kept]) {
			kept++
		}
	}
	fed := c.chk.Len() - kept
	l.stats.fed += fed
	if fed > len(h)-same {
		l.stats.fail(fmt.Sprintf("process %d: the checker was fed %d symbols of a %d-symbol sketch whose first %d the builder kept",
			p.ID, fed, len(h), same))
	}
	cp.last = append(cp.last[:0], h...)
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
// per round are a small share of the sketches built, and that no round
// feeds its chain's checker more symbols than the builder re-emitted. Over
// an atomic board the processes share one chain, whose checker is fed
// about one sketch per run, not one per process; the other kinds keep a
// chain per process.
func TestPredictiveRoundCostTracksNewTriples(t *testing.T) {
	for _, kind := range arrayKinds {
		stats := &roundStats{chains: map[*chain]*chainProbe{}}
		final := 0 // symbols of every chain's last sketch
		for seed := int64(1); seed <= 4; seed++ {
			clear(stats.chains)
			runKind(kind, seed, func(tau *adversary.Timed) Monitor {
				return predictiveSetup(tau, kind, func(*tripleBoard) {},
					func(l *predictiveLogic) Logic { return newRoundProbe(l, stats) })
			})
			want := testProcs
			if kind == adversary.ArrayAtomic {
				want = 1
			}
			if len(stats.chains) != want {
				t.Fatalf("%s seed %d: the processes fed %d chains, want %d", kind, seed, len(stats.chains), want)
			}
			for _, cp := range stats.chains {
				final += len(cp.last)
			}
		}
		if stats.bad != "" {
			t.Fatalf("%s: %s", kind, stats.bad)
		}
		t.Logf("%s: %d rounds, %d append-only; re-emitted %d of %d sketch symbols; fed the checkers %d for final sketches of %d",
			kind, stats.rounds, stats.appendOnly, stats.reemitted, stats.emitted, stats.fed, final)
		if stats.appendOnly == 0 {
			t.Errorf("%s: no append-only round", kind)
		}
		if 10*stats.reemitted > stats.emitted {
			t.Errorf("%s: re-emitted %d of %d sketch symbols, want at most a tenth",
				kind, stats.reemitted, stats.emitted)
		}
		if 2*final < stats.fed {
			t.Errorf("%s: fed the checkers %d symbols, more than twice their chains' final sketches (%d)",
				kind, stats.fed, final)
		}
	}
}

// feedProbe wraps an order-free logic and checks, every round, that the
// checker of the chain the process fed was fed exactly the chain's newly
// collected triples, and that it holds every triple of the process's
// collected set, once. A shared chain's checker is measured against its
// length at its last feed, by whichever process: other processes can feed
// the chain while this one's round waits for its snapshot, but not between
// a feed and the end of its round.
type feedProbe struct {
	Logic
	stats *feedStats
}

func (f *feedProbe) Unwrap() Logic { return f.Logic }

type feedStats struct {
	rounds int
	fed    int            // symbols fed to the checkers
	refeed int            // symbols a whole-history re-feed every round would have fed
	bad    string         // the first violation
	last   map[*chain]int // each chain's checker length at the end of its last feed's round
	// sets holds, per process, the size of the run's last collected set,
	// and largest the largest set the run collected.
	sets    map[int]int
	largest int
}

// fedLen returns the length of the checker of the chain process id feeds,
// and the chain.
func (f *feedProbe) fedLen(id int) (int, *chain) {
	switch l := f.Logic.(type) {
	case *ecledLogic:
		if c := l.board.chain(id); c.ledger != nil {
			return c.ledger.Len(), c
		}
	case *naiveOrderLogic:
		if c := l.board.chain(id); c.chk != nil {
			return c.chk.Len(), c
		}
	default:
		panic(fmt.Sprintf("feedProbe: %T is not an order-free logic", f.Logic))
	}
	panic("feedProbe: a round left its chain without a checker")
}

func (f *feedProbe) PostRecv(p *sched.Proc, resp trace.Response) {
	f.Logic.PostRecv(p, resp)
	after, c := f.fedLen(p.ID)
	collected := 0
	for _, n := range boardOf(f.Logic).snaps[p.ID] {
		collected += n
	}
	fed := after - f.stats.last[c]
	if f.stats.bad == "" && (fed != 2*len(c.delta) || after != 2*collected) {
		f.stats.bad = fmt.Sprintf("process %d: round fed %d symbols for %d new triples; %d fed in all for %d collected",
			p.ID, fed, len(c.delta), after, collected)
	}
	f.stats.last[c] = after
	f.stats.rounds++
	f.stats.fed += fed
	f.stats.refeed += 2 * collected
	f.stats.sets[p.ID] = collected
	f.stats.largest = max(f.stats.largest, collected)
}

// TestOrderFreeRoundCostTracksNewTriples is the order-free logics'
// counterpart of TestPredictiveRoundCostTracksNewTriples: over each
// ArrayKind, ecledLogic and naiveOrderLogic feed their chains' checkers each
// collected triple exactly once per chain, so a round costs its new triples
// rather than a re-feed of the whole collected history. Over an atomic
// board the processes share one chain, fed each triple once per run; the
// other kinds feed each process's chain its own set.
func TestOrderFreeRoundCostTracksNewTriples(t *testing.T) {
	setups := []struct {
		l  lang.Lang
		mk func(adversary.ArrayKind) Monitor
	}{
		{lang.ECLed(), NewECLed},
		{lang.SCLed(), func(kind adversary.ArrayKind) Monitor { return NewNaiveOrder(trace.Ledger(), kind) }},
	}
	for _, su := range setups {
		for _, kind := range arrayKinds {
			inner := su.mk(kind)
			stats := &feedStats{}
			m := NewMonitor("probe-"+inner.Name(), func(n int) []Logic {
				logics := inner.New(n)
				for i, l := range logics {
					logics[i] = &feedProbe{Logic: l, stats: stats}
				}
				return logics
			})
			union, each := 0, 0 // triples of the runs' largest sets, and of every process's last set
			for seed := int64(1); seed <= 2; seed++ {
				for _, lb := range su.l.Sources(testProcs, seed) {
					stats.last, stats.sets, stats.largest = map[*chain]int{}, map[int]int{}, 0
					runUntimedSteps(m, lb.New(), seed, naiveSteps)
					union += stats.largest
					for _, k := range stats.sets {
						each += k
					}
				}
			}
			if stats.bad != "" {
				t.Fatalf("%s: %s", inner.Name(), stats.bad)
			}
			t.Logf("%s: %d rounds fed %d symbols; re-feeding each round's whole history would feed %d, a chain per process %d",
				inner.Name(), stats.rounds, stats.fed, stats.refeed, 2*each)
			if stats.rounds < 100 {
				t.Errorf("%s: %d rounds; the runs are too short", inner.Name(), stats.rounds)
			}
			want := 2 * each
			if kind == adversary.ArrayAtomic {
				want = 2 * union
			}
			if stats.fed != want {
				t.Errorf("%s: the checkers were fed %d symbols, want %d", inner.Name(), stats.fed, want)
			}
		}
	}
}

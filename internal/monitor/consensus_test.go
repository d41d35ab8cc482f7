package monitor

// The consensus-order baseline validates the agreed order as far as the
// process's last snapshot collected its operations, looking each one up in
// the board's logs. The shadow below rebuilds the process's collected set
// as a map every round, replays the agreed order over it, and compares
// verdicts: a lookup past the snapshot would validate operations published
// while the process's proposals paused, which its set lacks.

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/sched"
)

// consensusShadow is consensusLogic with every round's verdict compared to
// the replay of its agreed order over a map of its collected set.
type consensusShadow struct {
	*consensusLogic
	ref    orderFreeRef
	flag   bool // the reference's sticky NO
	parted *int // rounds whose agreed order holds a published operation the set lacks
}

func (s *consensusShadow) PostRecv(p *sched.Proc, resp trace.Response) {
	s.consensusLogic.PostRecv(p, resp)
	s.ref.sync(p.ID, s.board)
	known := make(map[trace.OpID]trace.Triple, len(s.ref.all))
	for _, tr := range s.ref.all {
		known[tr.ID] = tr
	}
	st := s.obj.Init()
	for _, id := range s.agreed {
		tr, ok := known[id]
		if s.flag || !ok {
			break
		}
		next, ret, ok := st.Apply(tr.Inv.Op, tr.Inv.Val)
		s.flag = !ok || (tr.Res.Val != nil && !ret.Equal(tr.Res.Val))
		st = next
	}
	for _, id := range s.agreed {
		if _, ok := known[id]; !ok && id.Idx < len(s.board.logs[id.Proc]) {
			*s.parted++
			break
		}
	}
	want := Yes
	if s.flag {
		want = No
	}
	if s.verdict != want {
		s.ref.fail(fmt.Sprintf("process %d with %d agreed operations and %d collected: verdict %v, reference %v",
			p.ID, len(s.agreed), len(s.ref.all), s.verdict, want))
	}
}

// TestConsensusOrderMatchesCollectedSetReference runs the consensus-order
// baseline over its differential cases, every board kind, bare and
// Aτ-wrapped services, biased and random schedules, seeds and crash
// schedules, with every round compared to consensusShadow. It also counts
// the rounds whose agreed order reaches an operation the process's set
// lacks, where the two lookups part.
func TestConsensusOrderMatchesCollectedSetReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var bad []string
	fail := func(msg string) { bad = append(bad, msg) }
	nos, parted := 0, 0
	for _, kind := range arrayKinds {
		for _, c := range consensusCases {
			for _, sch := range logicSchedules(false, c) {
				for _, seed := range seeds {
					res := runCase(c, seed, sch, func(*adversary.Timed) Monitor {
						m := NewConsensusOrder(c.obj, kind)
						return NewMonitor("shadow-"+m.Name(), func(n int) []Logic {
							logics := m.New(n)
							for i, l := range logics {
								logics[i] = &consensusShadow{consensusLogic: l.(*consensusLogic), ref: orderFreeRef{fail: fail}, parted: &parted}
							}
							return logics
						})
					})
					if len(bad) > 0 {
						t.Fatalf("%s board=%s %v seed %d: %d mismatches, first: %s", c.name, kind, sch, seed, len(bad), bad[0])
					}
					nos += res.TotalNO()
				}
			}
		}
	}
	t.Logf("%d NO verdicts; %d rounds agreed on a published operation their set lacks", nos, parted)
	if nos == 0 || parted == 0 {
		t.Error("the runs must exercise violations, and agreed operations the set lacks")
	}
}

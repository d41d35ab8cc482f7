package monitor_test

import (
	"fmt"
	"testing"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/adversary"
	"github.com/drv-go/drv/internal/lang"
	"github.com/drv-go/drv/internal/monitor"
	"github.com/drv-go/drv/internal/sched"
)

// pooledCase is one monitor of the pooled-logic sequence: the language whose
// sources it runs against, whether it needs Aτ, and its constructor.
type pooledCase struct {
	l     lang.Lang
	timed bool
	mk    func(tau *adversary.Timed, kind adversary.ArrayKind) monitor.Monitor
}

func pooledCases() []pooledCase {
	reg := trace.Register()
	return []pooledCase{
		{lang.LinReg(), true, func(tau *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewLin(reg, tau, k) }},
		{lang.SCReg(), true, func(tau *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewSC(reg, tau, k) }},
		{lang.WECCount(), false, func(_ *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewWEC(k) }},
		{lang.SECCount(), true, func(tau *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewSEC(tau, k) }},
		{lang.ECLed(), false, func(_ *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewECLed(k) }},
		{lang.SCReg(), false, func(_ *adversary.Timed, k adversary.ArrayKind) monitor.Monitor { return monitor.NewNaiveOrder(reg, k) }},
		{lang.LinReg(), false, func(_ *adversary.Timed, k adversary.ArrayKind) monitor.Monitor {
			return monitor.NewConsensusOrder(reg, k)
		}},
		{lang.SECCount(), true, func(tau *adversary.Timed, k adversary.ArrayKind) monitor.Monitor {
			return monitor.AmplifyWAD(monitor.NewSEC(tau, k), k)
		}},
	}
}

// pooledConfig builds the run of case c over n processes and array kind
// kind against source src, with the adversaries cursor and timed build.
func pooledConfig(c pooledCase, n int, kind adversary.ArrayKind, src adversary.Source, seed int64,
	cursor func(int, adversary.Source) *adversary.A,
	timed func(int, adversary.Service, adversary.ArrayKind) *adversary.Timed) monitor.Config {
	adv := cursor(n, src)
	var svc adversary.Service = adv
	var tau *adversary.Timed
	if c.timed {
		tau = timed(n, adv, kind)
		svc = tau
	}
	return monitor.Config{
		N:       n,
		Monitor: c.mk(tau, kind),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return svc, []int{adv.Register(rt)}
		},
		Policy:   func(aux []int) sched.Policy { return sched.Biased(seed, aux[0], 0.5) },
		MaxSteps: 1500,
	}
}

// resultText renders every field of a result a consumer reads, responses
// with their views included, so two results compare field by field and a
// rendering taken earlier pins a result's bytes.
func resultText(res *monitor.Result) string {
	s := fmt.Sprintf("steps=%d drained=%t\nhistory=%s\n", res.Steps, res.Drained, res.History)
	for p := range res.Verdicts {
		s += fmt.Sprintf("p%d verdicts=%v step=%v pulled=%v hist=%v\n",
			p, res.Verdicts[p], res.StepAt[p], res.PulledAt[p], res.HistAt[p])
		s += fmt.Sprintf("p%d invs=%v\n", p, res.Invs[p])
		for _, r := range res.Responses[p] {
			view := "-"
			if r.View != nil {
				view = r.View.Key()
			}
			s += fmt.Sprintf("p%d resp %v id=%v view=%s\n", p, r.Sym, r.ID, view)
		}
	}
	return s
}

// TestPooledLogicsMatchFresh drives one session, with its pooled
// adversaries, through every monitor logic at process counts 5, 3 and 5 over
// each array kind, and requires each result to equal the package-level Run
// of the same configuration against fresh adversaries, field by field:
// logics that reuse the buffers earlier runs grew, at other process counts
// and under other monitors, decide exactly as fresh ones.
func TestPooledLogicsMatchFresh(t *testing.T) {
	s := monitor.NewSession()
	defer s.Close()
	kinds := []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayAADGMS, adversary.ArrayCollect}
	cases := pooledCases()
	nos := make([]int, len(cases))
	for _, n := range []int{5, 3, 5} {
		for _, kind := range kinds {
			for ci, c := range cases {
				seed := int64(n*10 + ci)
				for _, lb := range c.l.Sources(n, seed) {
					want := resultText(monitor.Run(pooledConfig(c, n, kind, lb.New(), seed, adversary.NewA, adversary.NewTimed)))
					res := s.Run(pooledConfig(c, n, kind, lb.New(), seed, s.Cursor, s.Timed))
					if got := resultText(res); got != want {
						t.Fatalf("n=%d %s %s source %s: pooled run differs from a fresh one\n got %s\nwant %s",
							n, kind, c.l.Name, lb.Name, got, want)
					}
					nos[ci] += res.TotalNO()
				}
			}
		}
	}
	// A logic that never reported NO may leave its state as it found it;
	// every logic must have carried violations from run to run.
	for ci, c := range cases {
		if nos[ci] == 0 {
			t.Errorf("case %d (%s): no NO verdicts over the sequence", ci, c.l.Name)
		}
	}
}

// TestResultOutlivesOtherSessions pins that a session's result, History and
// views included, belongs to that session alone: runs on other sessions,
// fresh or pooled, leave its bytes as they were.
func TestResultOutlivesOtherSessions(t *testing.T) {
	c := pooledCases()[0]
	src := func() adversary.Source { return c.l.Sources(4, 1)[0].New() }
	s := monitor.NewSession()
	defer s.Close()
	held := s.Run(pooledConfig(c, 4, adversary.ArrayAtomic, src(), 1, s.Cursor, s.Timed))
	want := resultText(held)

	other := monitor.NewSession()
	defer other.Close()
	for seed := int64(2); seed <= 3; seed++ {
		other.Run(pooledConfig(c, 4, adversary.ArrayAtomic, src(), seed, other.Cursor, other.Timed))
		monitor.Run(pooledConfig(c, 4, adversary.ArrayAtomic, src(), seed, adversary.NewA, adversary.NewTimed))
	}
	if got := resultText(held); got != want {
		t.Fatalf("a result changed under runs on other sessions\n got %s\nwant %s", got, want)
	}
}

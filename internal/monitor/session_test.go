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

// sessionCfg builds a monitored-run config over the WEC_COUNT "exact" source:
// a crash schedule mid-run leaves gated processes behind at halt time, which
// is exactly the state a pooled runtime must recover from.
func sessionCfg(n int, seed int64, crash map[int][]int, steps int) monitor.Config {
	src := lang.WECCount().Sources(n, seed)[0]
	adv := adversary.NewA(n, src.New())
	return monitor.Config{
		N:       n,
		Monitor: monitor.NewWEC(adversary.ArrayAtomic),
		NewService: func(rt *sched.Runtime) (adversary.Service, []int) {
			return adv, []int{adv.Register(rt)}
		},
		Policy: func(aux []int) sched.Policy {
			return sched.Biased(seed, aux[0], 0.5)
		},
		MaxSteps: steps,
		Crash:    crash,
	}
}

// fingerprint flattens everything a differential consumer reads from a
// result: history, verdict streams, the per-verdict step/pulled/history
// indices and the step count.
func fingerprint(res *monitor.Result) string {
	s := fmt.Sprintf("steps=%d hist=%s", res.Steps, res.History)
	for p := range res.Verdicts {
		s += fmt.Sprintf("|p%d:", p)
		for k, v := range res.Verdicts[p] {
			s += fmt.Sprintf(" %s@%d/%d/%d", v, res.StepAt[p][k], res.PulledAt[p][k], res.HistAt[p][k])
		}
	}
	return s
}

// TestSessionReuseMatchesRun drives the same seeds through fresh one-shot
// runs and through a single 100×-reused session, crashes and all, and
// requires identical histories, verdicts and step counts.
func TestSessionReuseMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("session reuse sweep is a tier-2 test")
	}
	const n = 3
	crash := map[int][]int{40: {1}}
	want := make([]string, 10)
	for seed := range want {
		want[seed] = fingerprint(monitor.Run(sessionCfg(n, int64(seed+1), crash, 400)))
	}

	s := monitor.NewSession()
	defer s.Close()
	for i := 0; i < 100; i++ {
		seed := i%len(want) + 1
		got := fingerprint(s.Run(sessionCfg(n, int64(seed), crash, 400)))
		if got != want[seed-1] {
			t.Fatalf("reuse %d (seed %d) diverged:\n got %s\nwant %s", i, seed, got, want[seed-1])
		}
	}
}

// TestSessionAcrossProcessCounts interleaves runs of different sizes on one
// session; each must match its fresh-run fingerprint and report exactly n
// processes.
func TestSessionAcrossProcessCounts(t *testing.T) {
	s := monitor.NewSession()
	defer s.Close()
	for _, n := range []int{4, 2, 3, 2, 4} {
		want := monitor.Run(sessionCfg(n, 7, nil, 300))
		got := s.Run(sessionCfg(n, 7, nil, 300))
		if got.Procs() != n {
			t.Fatalf("n=%d: pooled result reports %d processes", n, got.Procs())
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("n=%d: pooled run diverged from fresh run", n)
		}
	}
}

// TestRoundObservationRecordedAtReceive cuts runs at every step bound in a
// range and checks the per-process observation buffers: a round's invocation
// and response are recorded as soon as Line 04 returns, so a run stopped
// between the receive and the verdict keeps them (one entry more than
// Verdicts), and the two buffers stay aligned with each other.
func TestRoundObservationRecordedAtReceive(t *testing.T) {
	s := monitor.NewSession()
	defer s.Close()
	cut := 0
	for steps := 1; steps <= 300; steps++ {
		res := s.Run(sessionCfg(3, 7, nil, steps))
		for p := range res.Verdicts {
			inv, resp, verd := len(res.Invs[p]), len(res.Responses[p]), len(res.Verdicts[p])
			if inv != resp {
				t.Fatalf("steps=%d p%d: %d invocations but %d responses", steps, p, inv, resp)
			}
			switch inv - verd {
			case 0:
			case 1:
				cut++
			default:
				t.Fatalf("steps=%d p%d: %d observations for %d verdicts", steps, p, inv, verd)
			}
		}
	}
	if cut == 0 {
		t.Fatal("no step bound cut a round between its receive and its verdict")
	}
}

// finite cuts a source after k symbols, so a run against it drains.
type finite struct {
	src adversary.Source
	k   int
}

func (f *finite) Next() (trace.Symbol, bool) {
	if f.k == 0 {
		return trace.Symbol{}, false
	}
	f.k--
	return f.src.Next()
}

// TestDefaultLoopMatchesSingleSteps is the session's drive differential:
// for every logic over each array kind, the default loop, whose crash
// schedule runs as the runtime's before-step hook, and a Drive that hands
// the runtime one Step at a time, crashing the schedule's processes ahead of
// each step, give equal Results: verdicts, StepAt, PulledAt, HistAt,
// History, Drained and the observations. The last schedule runs against a
// word cut short, so the run drains.
func TestDefaultLoopMatchesSingleSteps(t *testing.T) {
	const n, steps = 3, 900
	s := monitor.NewSession()
	defer s.Close()
	kinds := []adversary.ArrayKind{adversary.ArrayAtomic, adversary.ArrayAADGMS, adversary.ArrayCollect}
	cases := pooledCases()
	cases = append(cases, pooledCase{lang.WECCount(), false, func(_ *adversary.Timed, k adversary.ArrayKind) monitor.Monitor {
		return monitor.AmplifyWOD(monitor.NewWEC(k), k)
	}})
	crashes := []map[int][]int{
		nil,
		{57: {1}, 301: {2}},
		{3: {0}, 140: {1}},
		{20: {2}},
	}
	drained := 0
	for _, kind := range kinds {
		for ci, c := range cases {
			for xi, crash := range crashes {
				seed := int64(ci*10 + xi)
				sources := c.l.Sources(n, seed)
				lb := sources[xi%len(sources)]
				src := func() adversary.Source {
					if xi == len(crashes)-1 {
						return &finite{lb.New(), 90}
					}
					return lb.New()
				}
				cfg := pooledConfig(c, n, kind, src(), seed, s.Cursor, s.Timed)
				cfg.MaxSteps, cfg.Crash = steps, crash
				want := resultText(s.Run(cfg))

				cfg = pooledConfig(c, n, kind, src(), seed, s.Cursor, s.Timed)
				newService := cfg.NewService
				var svc adversary.Service
				cfg.NewService = func(rt *sched.Runtime) (adversary.Service, []int) {
					var aux []int
					svc, aux = newService(rt)
					return svc, aux
				}
				drain := false
				cfg.Drive = func(rt *sched.Runtime) {
					crashable, _ := svc.(interface{ Crash(id int) })
					for rt.Steps() < steps {
						for _, id := range crash[rt.Steps()] {
							rt.Crash(id)
							if crashable != nil {
								crashable.Crash(id)
							}
						}
						if !rt.Step() {
							drain = true
							break
						}
					}
				}
				res := s.Run(cfg)
				res.Drained = drain // the session sets Drained only in its own loop
				if got := resultText(res); got != want {
					t.Fatalf("%s %s source %s crash %v: single steps differ from the default loop\n got %s\nwant %s",
						kind, c.l.Name, lb.Name, crash, got, want)
				}
				if drain {
					drained++
				}
			}
		}
	}
	if drained == 0 {
		t.Error("no run drained: the stall path went unchecked")
	}
}

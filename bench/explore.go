package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/drv-go/drv/internal/explore"
	"github.com/drv-go/drv/internal/monitor"
)

// Sweep sizes: a sweep is one drvexplore invocation, the user's unit of
// work; 200 scenarios is the command's default.
const (
	sweepScenarios = 200
	toyScenarios   = 20
)

// sweepsPerSecond is how many `-j 2` sweeps of each family the reference
// machine completes per second. A run sweeps --seconds times that many
// masters, so it lasts about --seconds there and does the same amount of
// work everywhere.
var sweepsPerSecond = map[string]float64{"lang": 1.0, "obj": 3.3, "msg": 2.5}

// sweeps is the number of sweeps one run of the family makes.
func (b *bench) sweeps(fam string) int {
	if b.toy {
		return 2
	}
	return max(1, int(math.Round(b.length.Seconds()*sweepsPerSecond[fam])))
}

// runMasters returns the n masters one run sweeps, cheapest first. The
// curated list is sorted by sweep cost; the run takes one master from each
// of n strata of it, so every run sweeps the same spread of costs and the
// run-to-run spread stays low, while the seed picks the master within each
// stratum.
func runMasters(fam string, seed int64, n int) []int64 {
	list := curatedMasters[fam]
	n = min(n, len(list))
	rng := rand.New(rand.NewSource(mix(seed, n)))
	out := make([]int64, n)
	for s := range out {
		lo, hi := s*len(list)/n, (s+1)*len(list)/n
		out[s] = list[lo+rng.Intn(hi-lo)]
	}
	return out
}

// exploreRunner returns the end-to-end run of one explore workload.
func exploreRunner(fam string) func(*bench) (*outcome, error) {
	return func(b *bench) (*outcome, error) { return runExplore(b, fam) }
}

// runExplore runs one `drvexplore -family fam -j 2` sweep per run master,
// checking that each exits 0 with no divergences and a complete report.
// Set-up is three 20-scenario sweeps of the first (cheapest) master.
func runExplore(b *bench, fam string) (*outcome, error) {
	o := &outcome{result: result{Metrics: metrics{}}, digests: map[string]string{}}
	masters := runMasters(fam, b.seed, b.sweeps(fam))
	report := filepath.Join(b.work, "report.json")
	sweep := func(master int64, scenarios int) (*child, error) {
		c, err := b.runChild("drvexplore", "-family", fam, "-j", "2", "-seeds", strconv.Itoa(scenarios),
			"-master", strconv.FormatInt(master, 10), "-out", report)
		if err != nil {
			return nil, err
		}
		o.Attempted += scenarios
		what := fmt.Sprintf("drvexplore -family %s -seeds %d -master %d", fam, scenarios, master)
		if c.exit != 0 || !bytes.HasSuffix(c.stdout, []byte("no divergences\n")) {
			o.fail(scenarios, fmt.Sprintf("%s exited %d: %q", what, c.exit, tailOf(c.stdout, c.stderr)))
			return c, nil
		}
		js, err := os.ReadFile(report)
		var rep explore.Report
		if err == nil {
			err = json.Unmarshal(js, &rep)
		}
		switch {
		case err != nil:
			o.fail(scenarios, fmt.Sprintf("%s: report: %v", what, err))
		case rep.Scenarios != scenarios || rep.Master != master:
			o.fail(scenarios, fmt.Sprintf("%s: report covers %d scenarios of master %d", what, rep.Scenarios, rep.Master))
		case rep.Divergent():
			o.fail(len(rep.Failures), fmt.Sprintf("%s: %d divergent scenarios", what, len(rep.Failures)))
		}
		sum := sha256.Sum256(js)
		o.digests[fmt.Sprintf("%s/%d/%d", fam, scenarios, master)] = hex.EncodeToString(sum[:])
		return c, nil
	}

	var setup []float64
	for range 3 {
		c, err := sweep(masters[0], toyScenarios)
		if err != nil {
			return nil, err
		}
		setup = append(setup, c.wall.Seconds())
	}

	n := sweepScenarios
	if b.toy {
		n = toyScenarios
	}
	var walls []float64
	total := 0.0
	for _, m := range masters {
		c, err := sweep(m, n)
		if err != nil {
			return nil, err
		}
		walls = append(walls, c.wall.Seconds())
		total += c.wall.Seconds()
	}
	fmt.Fprintf(b.log, "explore-%s: %d-scenario sweep wall s: %s\n", fam, n, describe(walls))
	o.Metrics.set("setup_s", "s", median(setup))
	o.Metrics.set("throughput_per_s", "1/s", float64(n*len(walls))/total)
	o.Metrics.set("latency_p50_ms", "ms", median(walls)*1000)
	return o, nil
}

// exploreLayers returns the traced part of one explore family: sweeps
// through explore.Explore on one worker with per-stage profiling on and
// shrinking off (so the stage split and allocation counts are exact), then
// every reported bug shrunk on a pooled runner, as the command would. At
// full size it sweeps the workload's own masters, each of the first half
// once untraced right before its traced sweep, for the traced-to-untraced
// wall ratio; otherwise it sweeps the first master only.
func exploreLayers(fam string) partFunc {
	return func(b *bench, sz size, sp *spans, o *outcome) (metrics, float64, error) {
		masters := runMasters(fam, b.seed, b.sweeps(fam))
		n := sweepScenarios
		if b.toy {
			n = toyScenarios
		}
		if sz != sizeFull {
			masters = masters[:1]
		}
		half := max(1, len(masters)/2)

		var stages explore.StageBreakdown
		var steps, verdicts int64
		var traced, untraced, shrinkTime time.Duration
		for i, m := range masters {
			var plain *explore.Report
			if sz == sizeFull && i < half {
				start := time.Now()
				rep, _, err := sweepLib(fam, m, n, nil)
				if err != nil {
					return nil, 0, err
				}
				untraced += time.Since(start)
				plain = rep
			}
			start := time.Now()
			rep, shrink, err := sweepLib(fam, m, n, sp)
			if err != nil {
				return nil, 0, err
			}
			if plain != nil {
				traced += time.Since(start)
				if !sameReport(rep, plain) {
					o.fail(rep.Scenarios, fmt.Sprintf("explore %s master %d: the profiled report differs from the plain one", fam, m))
				}
			}
			shrinkTime += shrink
			o.Attempted += rep.Scenarios
			if rep.Divergent() {
				o.fail(len(rep.Failures), fmt.Sprintf("explore %s master %d: %d divergent scenarios", fam, m, len(rep.Failures)))
			}
			if st := rep.Stages[fam]; st != nil {
				for _, c := range []struct{ dst, src *explore.StageCost }{
					{&stages.Generate, &st.Generate}, {&stages.Execute, &st.Execute},
					{&stages.Monitor, &st.Monitor}, {&stages.Check, &st.Check},
				} {
					c.dst.Nanos += c.src.Nanos
					c.dst.Allocs += c.src.Allocs
				}
			}
			steps += rep.TotalSteps
			verdicts += rep.TotalVerdicts
		}
		overhead := 0.0
		if untraced > 0 {
			overhead = traced.Seconds() / untraced.Seconds()
		}

		scen := float64(len(masters) * n)
		us := func(d int64) float64 { return float64(d) / 1e3 / scen }
		m := metrics{}
		pre := "explore." + fam + "."
		m.set(pre+"generate_us", "us", us(stages.Generate.Nanos))
		m.set(pre+"execute_us", "us", us(stages.Execute.Nanos))
		m.set(pre+"check_us", "us", us(stages.Check.Nanos))
		if fam != "lang" {
			// The language family has no monitor stage and no bugs to shrink.
			m.set(pre+"monitor_us", "us", us(stages.Monitor.Nanos))
			m.set(pre+"shrink_us", "us", us(shrinkTime.Nanoseconds()))
		}
		allocs := stages.Generate.Allocs + stages.Execute.Allocs + stages.Monitor.Allocs + stages.Check.Allocs
		m.set(pre+"allocs_per_scenario", "count", float64(allocs)/scen)
		m.set(pre+"steps_per_scenario", "count", float64(steps)/scen)
		m.set(pre+"verdicts_per_scenario", "count", float64(verdicts)/scen)
		return m, overhead, nil
	}
}

// sweepLib runs one sweep through the library, profiled when sp is not nil,
// and shrinks its bugs; it returns the report and the shrinking time.
func sweepLib(fam string, master int64, n int, sp *spans) (*explore.Report, time.Duration, error) {
	id := sp.begin("explore.sweep", 0, int(master))
	defer sp.end(id)
	sid := sp.begin("explore.explore", id, int(master))
	rep, err := explore.Explore(explore.Options{
		Master: master, Scenarios: n, Workers: 1,
		Gen:        explore.GenConfig{Families: []string{fam}, MaxCrashes: 2},
		StageStats: sp != nil,
	})
	sp.end(sid)
	if err != nil {
		return nil, 0, fmt.Errorf("explore %s master %d: %w", fam, master, err)
	}
	s := monitor.NewSession()
	defer s.Close()
	runner := explore.Runner{Session: s}.Pooled()
	start := time.Now()
	for _, bug := range rep.Bugs {
		spec, err := explore.ParseSpec(bug.Spec)
		if err != nil {
			return nil, 0, err
		}
		kid := sp.begin("explore.shrink", id, int(master))
		explore.ShrinkBugSpec(spec, runner, 0)
		sp.end(kid)
	}
	return rep, time.Since(start), nil
}

// sameReport reports whether two reports of one sweep agree on everything
// but the stage profile.
func sameReport(a, b *explore.Report) bool {
	x, y := *a, *b
	x.Stages, y.Stages = nil, nil
	jx, errx := json.Marshal(x)
	jy, erry := json.Marshal(y)
	return errx == nil && erry == nil && bytes.Equal(jx, jy)
}

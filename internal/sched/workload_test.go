package sched_test

import (
	"context"
	"testing"

	"github.com/drv-go/drv/internal/experiment"
	"github.com/drv-go/drv/internal/explore"
	"github.com/drv-go/drv/internal/sched"
)

// BenchmarkWorkloadRoundTrips counts the coroutine round trips, the
// runnability re-reads of refresh, the re-reads among them that change
// nothing, and the scheduler steps of whole workloads on one worker: drvtable
// at its defaults, and drvexplore sweeps of each family at master seed 7. The
// counts are deterministic; they are reported per op as trips/op,
// rereads/op, noop-rereads/op and steps/op, so
//
//	go test -run '^$' -bench WorkloadRoundTrips -benchtime 1x ./internal/sched
//
// prints them.
func BenchmarkWorkloadRoundTrips(b *testing.B) {
	sweep := func(family string, seeds int) func() error {
		return func() error {
			_, err := explore.Explore(explore.Options{
				Master:    7,
				Scenarios: seeds,
				Workers:   1,
				Gen:       explore.GenConfig{Families: []string{family}, MaxCrashes: 2},
				Shrink:    true,
			})
			return err
		}
	}
	for _, w := range []struct {
		name string
		run  func() error
	}{
		{"table1", func() error {
			_, err := experiment.Run(context.Background(), experiment.DefaultParams(), experiment.Options{Workers: 1})
			return err
		}},
		{"explore-lang", sweep(explore.FamLang, 2000)},
		{"explore-obj", sweep(explore.FamObj, 1000)},
		{"explore-msg", sweep(explore.FamMsg, 1000)},
	} {
		b.Run(w.name, func(b *testing.B) {
			trips0, rereads0, noops0, steps0 := sched.Tally()
			for i := 0; i < b.N; i++ {
				if err := w.run(); err != nil {
					b.Fatal(err)
				}
			}
			trips, rereads, noops, steps := sched.Tally()
			b.ReportMetric(float64(trips-trips0)/float64(b.N), "trips/op")
			b.ReportMetric(float64(rereads-rereads0)/float64(b.N), "rereads/op")
			b.ReportMetric(float64(noops-noops0)/float64(b.N), "noop-rereads/op")
			b.ReportMetric(float64(steps-steps0)/float64(b.N), "steps/op")
		})
	}
}

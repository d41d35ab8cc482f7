package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"math"
	"time"

	"github.com/drv-go/drv/internal/experiment"
)

// The expected drvtable output at full depth and at the short parameters.
var (
	//go:embed testdata/table1.golden
	table1Golden []byte
	//go:embed testdata/table1_short.golden
	table1ShortGolden []byte
)

// table1Cells is the number of cells of Table 1.
const table1Cells = 28

// tablesPerSecond is how many full-depth `drvtable -j 2` runs the reference
// machine completes per second; a run makes --seconds times that many.
const tablesPerSecond = 0.3

// shortFlags are drvtable's flags for experiment.ShortParams.
var shortFlags = []string{"-seeds", "1", "-steps", "3000", "-timed-steps", "600", "-sc-steps", "300", "-rounds", "3", "-stages", "2"}

// runTable1 is the table1 workload: full-depth `drvtable -j 2` runs, each
// byte-compared with the golden table. Set-up is three short-parameter
// tables (process start, package initialisation, a small table), checked
// against their own golden.
func runTable1(b *bench) (*outcome, error) {
	o := &outcome{result: result{Metrics: metrics{}}}
	table := func(args []string, golden []byte) (*child, error) {
		c, err := b.runChild("drvtable", append([]string{"-j", "2"}, args...)...)
		if err != nil {
			return nil, err
		}
		o.Attempted += table1Cells
		if c.exit != 0 || !bytes.Equal(c.stdout, golden) {
			o.fail(table1Cells, fmt.Sprintf("drvtable %v exited %d; stdout differs from the golden: %q", args, c.exit, tailOf(c.stdout, c.stderr)))
		}
		return c, nil
	}

	var setup []float64
	for range 3 {
		c, err := table(shortFlags, table1ShortGolden)
		if err != nil {
			return nil, err
		}
		setup = append(setup, c.wall.Seconds())
	}

	args, golden := []string(nil), table1Golden
	if b.toy {
		args, golden = shortFlags, table1ShortGolden
	}
	var walls []float64
	for range max(1, int(math.Round(b.length.Seconds()*tablesPerSecond))) {
		c, err := table(args, golden)
		if err != nil {
			return nil, err
		}
		walls = append(walls, c.wall.Seconds())
	}
	wall := median(walls)
	fmt.Fprintf(b.log, "table1: table wall s: %s\n", describe(walls))
	o.Metrics.set("setup_s", "s", median(setup))
	o.Metrics.set("throughput_per_s", "1/s", table1Cells/wall)
	o.Metrics.set("latency_p50_ms", "ms", wall*1000)
	return o, nil
}

// tailOf returns the last bytes of a child's output for a failure message.
func tailOf(stdout, stderr []byte) string {
	out := append(append([]byte(nil), stdout...), stderr...)
	if len(out) > 400 {
		out = out[len(out)-400:]
	}
	return string(out)
}

// experimentLayers drives Table 1 through experiment.Run: once on one
// worker, where the plan runs row-major and the gaps between consecutive
// rows' last cell completions time each row, and once on two workers. The
// full size runs the table1 workload's default parameters and also times an
// untraced two-worker run for the tracing overhead.
func experimentLayers(b *bench, sz size, sp *spans, o *outcome) (metrics, float64, error) {
	p, golden := experiment.ShortParams(), table1ShortGolden
	if sz == sizeFull && !b.toy {
		p, golden = experiment.DefaultParams(), table1Golden
	}
	check := func(rows []experiment.Row, err error) error {
		if err != nil {
			return err
		}
		o.Attempted += table1Cells
		if !bytes.Contains(golden, []byte(experiment.Render(rows))) {
			o.fail(table1Cells, "experiment.Run rendered a table that differs from the golden")
		}
		return nil
	}
	m := metrics{}

	root := sp.begin("experiment.run.j1", 0, 1)
	start := time.Now()
	rowEnd := map[string]time.Time{}
	rows, err := experiment.Run(context.Background(), p, experiment.Options{Workers: 1, OnCell: func(u experiment.CellUpdate) {
		rowEnd[u.Cell.Lang] = time.Now()
	}})
	j1 := time.Since(start)
	sp.end(root)
	if err := check(rows, err); err != nil {
		return nil, 0, err
	}
	prev := start
	for _, row := range rows {
		end := rowEnd[row.Lang]
		sp.add("experiment.row."+row.Lang, root, 1, prev, end)
		m.set("experiment.row_s."+row.Lang, "s", end.Sub(prev).Seconds())
		prev = end
	}

	j2Run := func(sp *spans, req int) (time.Duration, error) {
		id := sp.begin("experiment.run.j2", 0, req)
		defer sp.end(id)
		start := time.Now()
		rows, err := experiment.Run(context.Background(), p, experiment.Options{Workers: 2})
		d := time.Since(start)
		return d, check(rows, err)
	}
	overhead := 0.0
	if sz == sizeFull {
		untraced, err := j2Run(nil, 2)
		if err != nil {
			return nil, 0, err
		}
		traced, err := j2Run(sp, 3)
		if err != nil {
			return nil, 0, err
		}
		overhead = traced.Seconds() / untraced.Seconds()
		m.set("experiment.speedup_j2", "ratio", j1.Seconds()/traced.Seconds())
	} else {
		j2, err := j2Run(sp, 2)
		if err != nil {
			return nil, 0, err
		}
		m.set("experiment.speedup_j2", "ratio", j1.Seconds()/j2.Seconds())
	}
	m.set("experiment.j1_s", "s", j1.Seconds())
	return m, overhead, nil
}

package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

// MeasuredConfig sizes a real (host-executed) sweep.
type MeasuredConfig struct {
	// Sizes3D to run (defaults to cubes 32..128).
	Sizes3D [][3]int
	// Sizes2D to run (defaults to squares 128..1024).
	Sizes2D [][2]int
	// Reps per measurement (default 3; best is reported).
	Reps int
	// BufferElems is the pipeline block size. The plans run
	// core.Default()'s lanes, and the baselines a pool of as many workers.
	BufferElems int
	// HostBWGBs is the host's DRAM copy bandwidth for percent-of-peak
	// normalization; 0 measures it first (stream.DRAMCopyGBs).
	HostBWGBs float64
}

func (c MeasuredConfig) withDefaults() MeasuredConfig {
	if len(c.Sizes3D) == 0 {
		c.Sizes3D = [][3]int{{32, 32, 32}, {64, 64, 64}, {128, 64, 64}, {128, 128, 128}}
	}
	if len(c.Sizes2D) == 0 {
		c.Sizes2D = [][2]int{{128, 128}, {256, 512}, {512, 512}, {1024, 1024}}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.BufferElems == 0 {
		c.BufferElems = 1 << 14
	}
	if c.HostBWGBs == 0 {
		c.HostBWGBs = stream.DRAMCopyGBs()
	}
	return c
}

// pipeline is the pipelined plans' configuration.
func (c MeasuredConfig) pipeline() core.Config {
	cfg := core.Default()
	cfg.BufferElems = c.BufferElems
	return cfg
}

func timeBest(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		el := time.Since(start)
		if r == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// timePlan times the product plan's forward transform y = DFT(x), best of
// reps, and closes the plan.
func timePlan(reps int, p *core.Plan, y, x []complex128) (float64, error) {
	defer p.Close()
	d, err := timeBest(reps, func() error { return p.Transform(y, x, fft1d.Forward) })
	return d.Seconds(), err
}

// timeBaseline times y = DFT(x) through one of the in-place baselines, best
// of reps, the copy of x into y included.
func timeBaseline(reps int, y, x []complex128, baseline func(y []complex128)) float64 {
	d, _ := timeBest(reps, func() error {
		copy(y, x)
		baseline(y)
		return nil
	})
	return d.Seconds()
}

// printSweepTitle prints a sweep's title line with the host bandwidth its
// percentages are of, "unknown" where the probe had no flush kernel.
func printSweepTitle(w io.Writer, rank string, bwGBs float64) {
	bw := "unknown"
	if bwGBs > 0 {
		bw = fmt.Sprintf("≈ %.1f GB/s", bwGBs)
	}
	fmt.Fprintf(w, "Measured %s sweep on this host (DRAM copy %s)\n", rank, bw)
}

// pctPeak formats achieved pseudo-Gflop/s as a percentage of the achievable
// peak, or "-" where the host bandwidth, and with it the peak, is unknown.
func pctPeak(gflops, peak float64) string {
	if peak == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", gflops/peak*100)
}

// Measured3D runs the pencil and slab baselines and the double-buffered 3D
// plan on the host at the configured sizes and prints seconds,
// pseudo-Gflop/s and percent of this host's achievable peak.
func Measured3D(w io.Writer, cfg MeasuredConfig) error {
	cfg = cfg.withDefaults()
	var sizes [][]int
	for _, s := range cfg.Sizes3D {
		sizes = append(sizes, s[:])
	}
	return measured(w, cfg, "3D", sizes, []baseline{
		{"pencil", func(y []complex128, d []int, p int) { Pencil3D(y, d[0], d[1], d[2], fft1d.Forward, p) }},
		{"slab", func(y []complex128, d []int, p int) { Slab3D(y, d[0], d[1], d[2], fft1d.Forward, p) }},
	})
}

// Measured2D is Measured3D for the 2D implementations (pencil baseline vs
// double-buffered).
func Measured2D(w io.Writer, cfg MeasuredConfig) error {
	cfg = cfg.withDefaults()
	var sizes [][]int
	for _, s := range cfg.Sizes2D {
		sizes = append(sizes, s[:])
	}
	return measured(w, cfg, "2D", sizes, []baseline{
		{"pencil", func(y []complex128, d []int, p int) { Pencil2D(y, d[0], d[1], fft1d.Forward, p) }},
	})
}

// baseline is one in-place forward transform a sweep times beside the
// pipeline, on a pool of p workers.
type baseline struct {
	name string
	run  func(y []complex128, dims []int, p int)
}

// measured times the baselines and then the double-buffered plan at each
// of sizes, one table row a size; the last column is the first baseline's
// time over the plan's.
func measured(w io.Writer, cfg MeasuredConfig, rank string, sizes [][]int, baselines []baseline) error {
	printSweepTitle(w, rank, cfg.HostBWGBs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := "size"
	for _, b := range baselines {
		head += "\t" + b.name
	}
	fmt.Fprintln(tw, head+"\tdoublebuf\tdoublebuf pct-peak\tdb/pencil")
	workers := cfg.pipeline().Lanes
	for _, dims := range sizes {
		elems := 1
		for _, d := range dims {
			elems *= d
		}
		x := cvec.New(elems)
		for i := range x {
			x[i] = complex(float64(i%17)-8, float64(i%13)-6)
		}
		y := make([]complex128, elems)

		row := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(dims)), "x"), "[]")
		var first float64
		for i, b := range baselines {
			secs := timeBaseline(cfg.Reps, y, x, func(y []complex128) { b.run(y, dims, workers) })
			if i == 0 {
				first = secs
			}
			row += fmt.Sprintf("\t%.4fs", secs)
		}
		p, err := core.NewPlan(cfg.pipeline(), false, dims...)
		if err != nil {
			return err
		}
		dbuf, err := timePlan(cfg.Reps, p, y, x)
		if err != nil {
			return err
		}
		peak := perfmodel.AchievablePeakGflops(elems, len(dims), cfg.HostBWGBs)
		db := perfmodel.PseudoGflops(elems, dbuf)
		fmt.Fprintf(tw, "%s\t%.4fs\t%s\t%.2fx\n", row, dbuf, pctPeak(db, peak), first/dbuf)
	}
	return tw.Flush()
}

package bench

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// BenchmarkCopyLoads is the A/B of one lane's soft DMA that `make legprobe`
// prints after the leg budget: for each of LegProbe's complex shapes whose
// product graph prefetches (256³ and 4096², out of the LLC, at GOMAXPROCS =
// 1), the product plan, the plan built under Ablation{CopyLoads: true} —
// the load leg's copy kept and the codelets' prefetch off — and the plan
// built under Ablation{NoFold: true} — the store leg kept, the last sweep
// writing the lane's buffer — run alternating round trips on the same
// arrays, and the median forward and inverse walls of each side print beside
// the product's. A shape whose product does not prefetch (more than one
// lane, a host without the streaming tier) prints that it has nothing to
// compare.
func BenchmarkCopyLoads(b *testing.B) {
	const reps = 5
	sides := []struct {
		name string
		ab   stagegraph.Ablation
	}{{"CopyLoads", stagegraph.Ablation{CopyLoads: true}}, {"NoFold", stagegraph.Ablation{NoFold: true}}}
	for _, dims := range [][]int{{256, 256, 256}, {4096, 4096}} {
		b.Run(strings.Trim(strings.ReplaceAll(fmt.Sprint(dims), " ", "x"), "[]"), func(b *testing.B) {
			debug.FreeOSMemory()
			prod, err := core.NewPlan(core.Default(), false, dims...)
			if err != nil {
				b.Fatal(err)
			}
			defer prod.Close()
			if !strings.Contains(prod.DescribeGraph(), "next block prefetched") {
				fmt.Printf("copyloads %v: the product does not prefetch here (%d lane(s)): nothing to compare\n",
					dims, core.Default().Lanes)
				return
			}
			plans := []*core.Plan{prod}
			for _, sd := range sides {
				restore := stagegraph.SetAblation(sd.ab)
				p, err := core.NewPlan(core.Default(), false, dims...)
				restore()
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				plans = append(plans, p)
			}
			n := prod.Len()
			x, y := make([]complex128, n), make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%17)-8, float64(i%13)-6)
			}
			walls := make([][2][]float64, len(plans)) // plan × direction
			for r := -1; r < reps; r++ {              // round -1 faults the arrays in, untimed
				for k, p := range plans {
					t0 := time.Now()
					if err := p.Transform(y, x, fft1d.Forward); err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					if err := p.Inverse(x, y); err != nil {
						b.Fatal(err)
					}
					if r >= 0 {
						walls[k][0] = append(walls[k][0], ms(t1.Sub(t0)))
						walls[k][1] = append(walls[k][1], ms(time.Since(t1)))
					}
				}
			}
			for k, sd := range sides {
				line := fmt.Sprintf("copyloads %v: median of %d alternating round trips, product vs Ablation{%s: true}:", dims, reps, sd.name)
				for d, name := range []string{"fwd", "inv"} {
					p, c := median(walls[0][d]), median(walls[k+1][d])
					line += fmt.Sprintf(" %s %.1f vs %.1f ms (%.2f×)", name, p, c, p/c)
				}
				fmt.Println(line)
			}
		})
	}
}

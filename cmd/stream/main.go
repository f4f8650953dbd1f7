// Command stream runs the STREAM memory-bandwidth benchmark (McCalpin) on
// this host: Copy, Scale, Add and Triad over three arrays, twice — split over
// GOMAXPROCS goroutines, the all-core rate the paper calibrates every
// figure's achievable peak with (§V), and on one goroutine, one core's rate,
// a lane's ceiling — and prints the two side by side. STREAM runs over
// arrays far larger than the last-level cache. STREAM's own rule asks for
// each array to be at least 4× the LLC; the banner prints the detected LLC
// beside the array size and warns when the arrays are smaller, since the
// figures are then (partly) cache bandwidth.
//
// Usage:
//
//	stream               # 8 Mi elements per array, 5 trials
//	stream -elems 1048576 -trials 3
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/machine"
	"repro/internal/stream"
)

func main() {
	elems := flag.Int("elems", 8<<20, "elements per array (3 arrays of float64)")
	trials := flag.Int("trials", 5, "trials per kernel; best is reported")
	flag.Parse()

	arrayBytes, llc := *elems*8, machine.HostLLCBytes()
	fmt.Printf("STREAM: %d elements/array (%.1f MiB each, %.1f MiB total), LLC %.1f MiB, %d trials\n",
		*elems, mib(arrayBytes), 3*mib(arrayBytes), mib(llc), *trials)
	if arrayBytes < 4*llc {
		fmt.Printf("warning: each array is smaller than 4× the LLC (%.1f MiB): these figures measure cache, not DRAM; raise -elems to at least %d\n",
			4*mib(llc), 4*llc/8)
	}
	all := stream.Run(stream.Config{Elems: *elems, Trials: *trials})
	one := stream.Run(stream.Config{Elems: *elems, Trials: *trials, Goroutines: 1})

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "kernel\tbest GB/s, %d cores\tavg\tworst\tbest time\tbest GB/s, 1 core\tavg\tworst\tbest time\n", all[0].Goroutines)
	for i, r := range all {
		o := one[i]
		status := ""
		if !r.CheckedOK || !o.CheckedOK {
			status = "  (VERIFICATION FAILED)"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%v\t%.2f\t%.2f\t%.2f\t%v%s\n",
			r.Kernel, r.BestGBs, r.AvgGBs, r.WorstGBs, r.BestTime, o.BestGBs, o.AvgGBs, o.WorstGBs, o.BestTime, status)
	}
	tw.Flush()
}

// mib converts bytes to MiB for the banner.
func mib(b int) float64 { return float64(b) / (1 << 20) }

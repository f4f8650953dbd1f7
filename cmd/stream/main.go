// Command stream runs the STREAM memory-bandwidth benchmark (McCalpin) on
// this host: Copy, Scale, Add and Triad over three arrays. The paper
// calibrates every figure's achievable peak with this number (§V), over
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
	results := stream.Run(stream.Config{Elems: *elems, Trials: *trials})

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tbest GB/s\tavg GB/s\tworst GB/s\tbest time")
	for _, r := range results {
		status := ""
		if !r.CheckedOK {
			status = "  (VERIFICATION FAILED)"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%v%s\n",
			r.Kernel, r.BestGBs, r.AvgGBs, r.WorstGBs, r.BestTime, status)
	}
	tw.Flush()
}

// mib converts bytes to MiB for the banner.
func mib(b int) float64 { return float64(b) / (1 << 20) }

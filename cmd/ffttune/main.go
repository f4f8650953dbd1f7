// Command ffttune searches the pipeline parameters (buffer size, μ)
// empirically on this host, at one lane a GOMAXPROCS, and prints each
// candidate's best time. The radix cap, store tier and store fold are no
// longer searched: one sweep found the defaults ahead or tied everywhere
// (EXPERIMENTS.md "Ablation axes, swept once"). There is one compute
// format: the paper's §IV-A block-interleaved format was implemented,
// measured 1.3–1.9× behind the complex-interleaved one in every cell
// (EXPERIMENTS.md "Plan defaults and whole-line streaming stores") and
// retired — f193575 is the last commit that searches it.
//
// Usage:
//
//	ffttune -size 64,64,64                     # tune one 3D size
//	ffttune -size 1024,1024 -reps 5            # 2D
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/tune"
)

func main() {
	sizeFlag := flag.String("size", "64,64,64", "k,n,m (3D) or n,m (2D)")
	reps := flag.Int("reps", 3, "repetitions per candidate (best kept)")
	flag.Parse()

	dims, err := cli.ParseDims(*sizeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffttune:", err)
		os.Exit(2)
	}
	space := tune.DefaultSpace()

	if len(dims) != 2 && len(dims) != 3 {
		fmt.Fprintln(os.Stderr, "ffttune: need 2 or 3 dimensions")
		os.Exit(2)
	}
	best, all, err := tune.Tune(dims, space, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffttune:", err)
		os.Exit(1)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "candidate\tseconds")
	for _, r := range all {
		marker := ""
		if r.Candidate == best.Candidate {
			marker = "  ← best"
		}
		fmt.Fprintf(tw, "%s\t%.5f%s\n", r.Candidate, r.Seconds, marker)
	}
	tw.Flush()
	fmt.Printf("\nbest for %v: %s (%.5fs)\n", dims, best.Candidate, best.Seconds)
}

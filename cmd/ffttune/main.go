// Command ffttune searches the pipeline parameters (buffer size, μ)
// empirically on this host, at one lane a GOMAXPROCS, and optionally persists
// the winners as a JSON wisdom file for later runs. The radix cap, store
// tier and store fold are no longer searched: one sweep found the defaults
// ahead or tied everywhere (EXPERIMENTS.md "Ablation axes, swept once"), and
// wisdom entries that still name them load with those members ignored.
// There is one compute format: the paper's §IV-A
// block-interleaved format was implemented, measured 1.3–1.9× behind the
// complex-interleaved one in every cell (EXPERIMENTS.md "Plan defaults and
// whole-line streaming stores") and retired — f193575 is the last commit
// that searches it, and wisdom entries written with "split_format": true
// are refused on load.
//
// Usage:
//
//	ffttune -size 64,64,64                     # tune one 3D size
//	ffttune -size 1024,1024 -reps 5            # 2D
//	ffttune -size 64,64,64 -wisdom wisdom.json # append the winner
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/tune"
)

func main() {
	sizeFlag := flag.String("size", "64,64,64", "k,n,m (3D) or n,m (2D)")
	reps := flag.Int("reps", 3, "repetitions per candidate (best kept)")
	wisdomPath := flag.String("wisdom", "", "wisdom file to update with the winner")
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
	key := tune.Key(dims...)
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
	fmt.Printf("\nbest for %s: %s (%.5fs)\n", key, best.Candidate, best.Seconds)

	if *wisdomPath != "" {
		if err := updateWisdom(*wisdomPath, key, best.Candidate); err != nil {
			fmt.Fprintln(os.Stderr, "ffttune:", err)
			os.Exit(1)
		}
		fmt.Printf("wisdom updated: %s\n", *wisdomPath)
	}
}

// updateWisdom records c under key in the wisdom file at path, keeping the
// entries already there. Only a file that does not exist starts an empty
// store: one that LoadWisdom rejects — corrupt, or carrying an entry for the
// retired split format, refused precisely so nothing is dropped silently —
// is an error that leaves the file untouched, not a store to overwrite.
func updateWisdom(path, key string, c tune.Candidate) error {
	w := tune.NewWisdom()
	f, err := os.Open(path)
	switch {
	case err == nil:
		w, err = tune.LoadWisdom(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s not updated: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	w.Put(key, c)
	f, err = os.Create(path)
	if err != nil {
		return err
	}
	if err := w.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

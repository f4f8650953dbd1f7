// Command fftbench regenerates the paper's figures.
//
// Paper-scale series (512³–2048³, the five §V machines) come from the
// performance model calibrated by the cache simulator; host-scale series
// run the real Go implementations. See EXPERIMENTS.md for the
// paper-vs-reproduced record.
//
// Usage:
//
//	fftbench -fig all          # every paper figure (modeled, paper scale)
//	fftbench -fig 1            # one figure: 1, 9, 10, 11a, 11b, 11c, 11d
//	fftbench -measured         # run the real implementations on this host
//	fftbench -measured -dims 2 # the 2D sweep instead of 3D
//	fftbench -measured -legs   # per-stage load/compute/store ms and per-lane waits at complex 256³, 4096², 2048², 512² and real 512×256×256, 4096² (make legprobe, make laneprobe)
//	fftbench -measured -setup  # build lines and first vs warm Forward at complex 256³, real 512×256×256 and 1D 2²⁴ (make setupprobe)
//
// Profiling a measured sweep (inspect with `go tool pprof`):
//
//	fftbench -measured -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/accuracy"
	"repro/internal/bench"
	"repro/internal/cpufeat"
	"repro/internal/kernels"
	"repro/internal/layout"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 9, 10, 11a, 11b, 11c, 11d or all")
	measured := flag.Bool("measured", false, "run the real implementations at host-feasible sizes")
	dims := flag.Int("dims", 3, "2 or 3: dimensionality of the measured sweep")
	reps := flag.Int("reps", 3, "repetitions per measured point (best is reported)")
	legs := flag.Bool("legs", false, "with -measured: print the per-stage leg budget and the per-lane legs and stage-barrier waits of complex 256³, 4096², 2048² and 512² and real 512×256×256 and 4096² instead of the sweep (median of -reps, of at least 301 at 512²)")
	setup := flag.Bool("setup", false, "with -measured: print the build lines and NewPlan + first Forward against a warm Forward of complex 256³, real 512×256×256 and 1D 2²⁴, with the destination fresh and pre-touched, instead of the sweep")
	setupCase := flag.Int("setupcase", -1, "with -measured -setup: run only this case of the setup probe, in this process (the probe runs each case so)")
	acc := flag.Bool("accuracy", false, "print the numerical-accuracy report instead of performance")
	traceJSON := flag.String("tracejson", "", "run a traced pipeline demo and write Chrome trace_event JSON to this file (load in Perfetto)")
	shardWorkers := flag.Int("shardworkers", 0, "with -tracejson: trace one sharded transform across an N-worker loopback cluster instead of the single-node demo")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Every run states the kernel configuration up front: numbers from
	// different tiers are not comparable. A setup-probe case is a child of
	// a run that already did.
	if *setupCase < 0 {
		fmt.Fprintf(os.Stderr, "fftbench: cpu features: %s; kernel tier: %s; non-temporal stores: %v\n",
			cpufeat.Summary(), kernels.Tier(), layout.NonTemporalAvailable())
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fftbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fftbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle steady-state live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fftbench:", err)
			}
		}()
	}

	if *acc {
		accuracy.Report(os.Stdout, []int{64, 256, 1024, 4096, 96, 1000, 127, 1021})
		return
	}

	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if *shardWorkers > 0 {
			// Fleet mode: one sharded transform on a loopback cluster, the
			// merged multi-node timeline instead of the single-node demo.
			if err := bench.WriteShardTraceJSON(f, os.Stdout, *shardWorkers); err != nil {
				fmt.Fprintln(os.Stderr, "fftbench:", err)
				os.Exit(1)
			}
		} else {
			fmt.Println("Recorded lane timeline (8×8×16 demo on two lanes; L=load C=compute S=store):")
			if err := bench.WriteTraceJSON(f, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "fftbench:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nChrome trace written to %s — open at ui.perfetto.dev\n", *traceJSON)
		return
	}

	if *measured {
		cfg := bench.MeasuredConfig{Reps: *reps}
		var err error
		switch {
		case *legs:
			err = bench.LegProbe(os.Stdout, *reps)
		case *setup && *setupCase >= 0:
			err = bench.SetupProbeCase(os.Stdout, *setupCase)
		case *setup:
			var exe string
			if exe, err = os.Executable(); err == nil {
				err = bench.SetupProbe(os.Stdout, exe, "-measured", "-setup", "-setupcase")
			}
		case *dims == 2:
			err = bench.Measured2D(os.Stdout, cfg)
		default:
			err = bench.Measured3D(os.Stdout, cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftbench:", err)
			os.Exit(1)
		}
		return
	}

	switch *fig {
	case "all":
		bench.All(os.Stdout)
	case "1":
		bench.Figure1(os.Stdout)
	case "9":
		bench.Figure9(os.Stdout)
	case "10":
		bench.Figure10(os.Stdout)
	case "11a":
		bench.Figure11a(os.Stdout)
	case "11b":
		bench.Figure11b(os.Stdout)
	case "11c":
		bench.Figure11c(os.Stdout)
	case "11d":
		bench.Figure11d(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "fftbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

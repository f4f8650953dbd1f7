// Command fftplan prints the SPL decomposition, the software-pipelining
// schedule, and the compiled stage graph the library would execute for a
// given 2D/3D size — the formulas of §III, the paper's Table II schedule,
// and the lanes this implementation runs it on, instantiated. For sizes
// small enough to build, the plan's actual compiled graph (per-stage
// geometry and rotation shape) is printed; -trace executes a scaled-down
// transform on two lanes and renders the recorded lane timeline.
//
// Usage:
//
//	fftplan -size 512,512,512 -mu 4 -b 131072
//	fftplan -size 1024,2048          # 2D
//	fftplan -size 64,32,32 -trace    # + compiled graph + recorded timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/machine"
	"repro/internal/spl"
	"repro/internal/trace"
)

func main() {
	sizeFlag := flag.String("size", "512,512,512", "comma-separated dimensions: k,n,m (3D) or n,m (2D)")
	mu := flag.Int("mu", 4, "cacheline block size μ in complex elements")
	b := flag.Int("b", 0, "pipeline block size in complex elements (0 = Kaby Lake default LLC/4)")
	demo := flag.Bool("trace", false, "execute a scaled-down transform and print the recorded pipeline timeline")
	flag.Parse()

	dims, err := cli.ParseDims(*sizeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftplan:", err)
		os.Exit(2)
	}
	if *b == 0 {
		*b = machine.KabyLake7700K.DefaultBufferElems()
	}

	switch len(dims) {
	case 2:
		print2D(dims[0], dims[1], *mu, *b)
	case 3:
		print3D(dims[0], dims[1], dims[2], *mu, *b)
	default:
		fmt.Fprintln(os.Stderr, "fftplan: need 2 or 3 dimensions")
		os.Exit(2)
	}
	if *demo {
		if err := printTraceDemo(); err != nil {
			fmt.Fprintln(os.Stderr, "fftplan:", err)
			os.Exit(1)
		}
	}
}

// printTraceDemo runs a small pipelined 3D transform on two lanes under a
// tracer and renders the recorded lane timeline.
func printTraceDemo() error {
	tr := trace.New()
	p, err := core.NewPlan(core.Config{
		Mu: 4, BufferElems: 128, Lanes: 2, Tracer: tr,
	}, false, 8, 8, 16)
	if err != nil {
		return err
	}
	x := make([]complex128, p.Len())
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	y := make([]complex128, p.Len())
	if err := p.Transform(y, x, fft1d.Forward); err != nil {
		return err
	}
	fmt.Println("\nRecorded lane timeline (8×8×16 demo on two lanes, all three stages; L=load C=compute S=store):")
	return tr.RenderTimeline(os.Stdout)
}

// describeElems caps the size at which fftplan instantiates a real plan
// just to print its compiled graph (the plan allocates full-size work
// arrays; beyond this the schedule summary is printed instead).
const describeElems = 1 << 22

func print2D(n, m, mu, b int) {
	fmt.Printf("2D FFT %d×%d, μ=%d, b=%d\n\n", n, m, mu, b)
	fmt.Println("Pencil-pencil form:")
	fmt.Println(" ", spl.DFT2D(n, m))
	if m%mu == 0 {
		fmt.Println("\nBlocked double-buffering form (§III-A):")
		fmt.Println(" ", spl.DFT2DBlocked(n, m, mu))
	}
	printPlan(mu, b, n, m)
}

func print3D(k, n, m, mu, b int) {
	fmt.Printf("3D FFT %d×%d×%d, μ=%d, b=%d\n\n", k, n, m, mu, b)
	fmt.Println("Pencil-pencil-pencil form:")
	fmt.Println(" ", spl.DFT3D(k, n, m))
	fmt.Println("\nRotation form (every stage contiguous, §III-A):")
	fmt.Println(" ", spl.DFT3DRotated(k, n, m))
	if m%mu == 0 {
		fmt.Println("\nBlocked double-buffering form:")
		fmt.Println(" ", spl.DFT3DBlocked(k, n, m, mu))
	}
	printPlan(mu, b, k, n, m)
}

// printPlan prints the schedule and, for sizes small enough to build, the
// compiled graph. A built plan's stage iterations are the ones printed —
// its pipeline-depth floor cuts small stages into more blocks than knm/b —
// and the paper's knm/b stands in for sizes too large to build.
func printPlan(mu, b int, dims ...int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	iters := make([]int, len(dims))
	for i := range iters {
		iters[i] = n / b
	}
	var desc string
	if n <= describeElems && dims[len(dims)-1]%mu == 0 {
		if p, err := core.NewPlan(core.Config{Mu: mu, BufferElems: b}, false, dims...); err == nil {
			iters, desc = p.Iters(), p.DescribeGraph()
			p.Close()
		}
	}
	printSchedule(iters)
	printGraph(desc)
}

// printGraph prints the plan's compiled stage graph, indented.
func printGraph(desc string) {
	if desc == "" {
		return
	}
	fmt.Println("\nCompiled stage graph:")
	for _, line := range strings.Split(strings.TrimRight(desc, "\n"), "\n") {
		fmt.Println(" ", line)
	}
}

// pad is the spaces that line up what follows "store(i)" at width w.
func pad(i, w int) string {
	return strings.Repeat(" ", max(w-len(fmt.Sprint(i)), 1))
}

// printSchedule prints the paper's Table II schedule for the first stage's
// iterations and how this host's lanes share every stage's.
func printSchedule(iters []int) {
	iter := max(iters[0], 1)
	fmt.Printf("\nThe stages run iter = %v pipeline blocks; the paper's Table II pipelines a stage's:\n", iters)
	step := func(i int) string { return fmt.Sprintf("step %d:", i) }
	fmt.Println("  step 0:         load(0)                                  — prologue")
	if iter == 1 {
		fmt.Println("  step 1:                            compute(0)")
		fmt.Println("  step 2:         store(0)                                 — epilogue")
	} else {
		fmt.Println("  step 1:         load(1)            compute(0)")
		fmt.Printf("  step s:         store(s-2) load(s)  compute(s-1)          — steady state ×%d\n", iter-2)
		fmt.Printf("  %-15s store(%d)%s compute(%d)\n", step(iter), iter-2, pad(iter-2, 12), iter-1)
		fmt.Printf("  %-15s store(%d)%s — epilogue\n", step(iter+1), iter-1, pad(iter-1, 33))
	}
	lanes := runtime.GOMAXPROCS(0)
	lo, hi := iters[0], iters[0]
	for _, it := range iters {
		lo, hi = min(lo, it), max(hi, it)
	}
	fmt.Printf("\nRun here on %d lane(s), one per GOMAXPROCS:\n", lanes)
	fmt.Printf("  each lane loads, computes and stores its %d to %d blocks of a stage in turn,\n",
		lo/lanes, (hi+lanes-1)/lanes)
	fmt.Printf("  then waits at the stage barrier: %d barriers a transform\n", len(iters))
}

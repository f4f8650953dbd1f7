// Command fftplan prints the SPL decomposition, the software-pipelining
// schedule, and the compiled stage graph the library would execute for a
// given 2D/3D size — the formulas of §III, the Table II schedule, and the
// fused cross-stage schedule, instantiated. For sizes small enough to
// build, the plan's actual compiled graph (per-stage geometry, rotation
// shape, step counts and fill overheads) is printed; -trace executes a
// scaled-down transform and renders the recorded fused timeline, stage row
// included.
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
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
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

// printTraceDemo runs a small pipelined 3D transform under a tracer and
// renders the recorded Table II timeline.
func printTraceDemo() error {
	tr := trace.New()
	p, err := fft3d.NewPlan(8, 8, 16, core.Config{
		Mu: 4, BufferElems: 128, DataWorkers: 1, ComputeWorkers: 1, Tracer: tr,
	})
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
	fmt.Println("\nRecorded pipeline timeline (8×8×16 demo, all three stages; S=store L=load C=compute):")
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
	printSchedule(2, n*m/b)
	if n*m <= describeElems && m%mu == 0 {
		if p, err := fft2d.NewPlan(n, m, core.Config{Mu: mu, BufferElems: b}); err == nil {
			printGraph(p.DescribeGraph())
		}
	}
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
	printSchedule(3, k*n*m/b)
	if k*n*m <= describeElems && m%mu == 0 {
		if p, err := fft3d.NewPlan(k, n, m, core.Config{Mu: mu, BufferElems: b}); err == nil {
			printGraph(p.DescribeGraph())
		}
	}
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

func printSchedule(stages, iters int) {
	if iters < 1 {
		iters = 1
	}
	fmt.Printf("\nEach stage runs iter = %d pipeline blocks (Table II):\n", iters)
	fmt.Println("  step 0:         load(0)                                  — prologue")
	fmt.Println("  step 1:         load(1)            compute(0)")
	fmt.Printf("  step s:         store(s-2) load(s)  compute(s-1)          — steady state ×%d\n", max(iters-2, 0))
	fmt.Printf("  step %d:%s store(%d)          compute(%d)\n",
		iters, strings.Repeat(" ", 8), iters-2, iters-1)
	fmt.Printf("  step %d:%s store(%d)                                — epilogue\n",
		iters+1, strings.Repeat(" ", 8), iters-1)
	total := stages * iters
	fmt.Printf("\nWhole transform as a fused stage graph (%d stages × %d iterations):\n", stages, iters)
	fmt.Printf("  fused (default): %d steps — steady state flows through stage boundaries,\n", total+stages+1)
	fmt.Printf("                   one fill/drain per transform; overhead %.3f\n",
		float64(total+stages+1)/float64(total))
	fmt.Printf("  unfused:         %d steps — every stage drains; overhead %.3f\n",
		total+2*stages, float64(total+2*stages)/float64(total))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Multisocket: the paper's dual-socket slab decomposition (§IV-B) on the
// simulated NUMA system, with the per-stage interconnect traffic report that
// reproduces Fig. 8's data-movement claims: stage 1 never crosses the
// QPI/HT link; stages 2 and 3 each send half their writes across (sk=2).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/fft3d"
)

func main() {
	const k, n, m = 64, 64, 64
	const sockets = 2

	dp, err := fft3d.NewDistPlan(k, n, m, sockets, core.Config{
		DataWorkers: 1, ComputeWorkers: 1, BufferElems: 1 << 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Allocate slab-partitioned input/output: socket s owns the z-range
	// [s·k/2, (s+1)·k/2), exactly like the paper's libnuma partitioning.
	src, err := dp.Alloc()
	if err != nil {
		log.Fatal(err)
	}
	dst, err := dp.Alloc()
	if err != nil {
		log.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(3)), k*n*m)
	src.Scatter(x)

	if err := dp.Transform(dst, src, fft1d.Forward); err != nil {
		log.Fatal(err)
	}

	// Verify against the single-node reference.
	ref, _ := fft3d.NewPlan(k, n, m, core.Config{Strategy: core.Reference})
	want := make([]complex128, k*n*m)
	if err := ref.Transform(want, x, fft1d.Forward); err != nil {
		log.Fatal(err)
	}
	got := make([]complex128, k*n*m)
	dst.Gather(got)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-8 {
		log.Fatalf("distributed transform wrong: max diff %g", d)
	}

	fmt.Printf("distributed 3D FFT %d×%d×%d over %d sockets — correct\n\n", k, n, m, sockets)
	fmt.Println("per-stage write traffic (Fig. 8 / Table III):")
	totalBytes := int64(k * n * m * 16)
	for st, tr := range dp.StageTraffic {
		frac := float64(tr.CrossBytes) / float64(tr.LocalBytes+tr.CrossBytes)
		fmt.Printf("  stage %d: local %8d B, cross-link %8d B (%.0f%% crossed)\n",
			st+1, tr.LocalBytes, tr.CrossBytes, frac*100)
		if tr.LocalBytes+tr.CrossBytes != totalBytes {
			log.Fatalf("stage %d did not write every element exactly once", st+1)
		}
	}
	if dp.StageTraffic[0].CrossBytes != 0 {
		log.Fatal("stage 1 must stay within its NUMA domain")
	}
	fmt.Println("\nstage 1 fully local; stages 2 and 3 cross for the remote half — as in the paper")
	fmt.Println("OK")
}

// Multisocket: the paper's dual-socket slab decomposition (§IV-B) run in one
// process, with the per-stage cross-slab traffic report that reproduces
// Fig. 8's data-movement claims: stage 1 never leaves its slab; stages 2 and
// 3 each send half their writes to the other slab (sk=2).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/shard"
)

func main() {
	const k, n, m = 64, 64, 64
	const sockets = 2

	// Socket s owns the z-slab [s·k/2, (s+1)·k/2) of the input and the
	// y-slab [s·n/2, (s+1)·n/2) of the output, like the paper's libnuma
	// partitioning.
	dp, err := shard.NewLocal(k, n, m, sockets, 0, shard.WorkerOptions{BufferElems: 1 << 12})
	if err != nil {
		log.Fatal(err)
	}
	defer dp.Close()

	x := cvec.Random(rand.New(rand.NewSource(3)), k*n*m)
	got := make([]complex128, k*n*m)
	if err := dp.Transform(got, x, fft1d.Forward); err != nil {
		log.Fatal(err)
	}

	// The slabs run the single-socket plan's kernel calls: bit for bit its
	// answer.
	single, err := core.NewPlan(core.Config{}, false, k, n, m)
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	want := make([]complex128, k*n*m)
	if err := single.Transform(want, x, fft1d.Forward); err != nil {
		log.Fatal(err)
	}
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		log.Fatalf("distributed transform differs from the single-socket plan at %d: %v vs %v", i, got[i], want[i])
	}

	fmt.Printf("distributed 3D FFT %d×%d×%d over %d sockets — bitwise the single-socket plan\n\n", k, n, m, sockets)
	fmt.Println("per-stage write traffic (Fig. 8 / Table III):")
	totalBytes := int64(k * n * m * 16)
	for st, tr := range dp.StageTraffic {
		fmt.Printf("  stage %d: local %8d B, cross-slab %8d B (%.0f%% crossed)\n",
			st+1, tr.LocalBytes, tr.CrossBytes, float64(tr.CrossBytes)/float64(totalBytes)*100)
		if tr.LocalBytes+tr.CrossBytes != totalBytes {
			log.Fatalf("stage %d did not write every element exactly once", st+1)
		}
		// Stage 1 stays in its slab; the later stages cross for the
		// (sk−1)/sk of the data another slab owns.
		want := totalBytes * (sockets - 1) / sockets
		if st == 0 {
			want = 0
		}
		if tr.CrossBytes != want {
			log.Fatalf("stage %d crossed %d B, want %d", st+1, tr.CrossBytes, want)
		}
	}
	fmt.Println("\nstage 1 fully local; stages 2 and 3 cross for the remote half — as in the paper")
	fmt.Println("OK")
}

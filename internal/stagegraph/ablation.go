package stagegraph

import (
	"sync/atomic"
	"testing"

	"repro/internal/fft1d"
)

// Ablation is the one seam for the schedules no product configuration
// selects: the oracle and A/B variants the tests hold the product graph to.
// Its zero value is the product — fused, store-folded, the store tier and
// the 2D load fold chosen from the footprint, radix-16 chains — and only a
// test binary can install
// another (SetAblation). It is read where graphs (Pencils.Build), runners
// (NewRunner) and the 1D sub-plans (Plan1D) are built, so a plan keeps the
// schedule it was built under.
type Ablation struct {
	// Unfused drains the pipeline at every stage boundary, as if each stage
	// were a separate engine invocation.
	Unfused bool
	// NoFold keeps the trailing trivial-twiddle radix-4 butterfly in the
	// compute leg instead of folding it into the scatter.
	NoFold bool
	// Stores forces cached (StoreRegular) or streaming (StoreNonTemporal)
	// block stores on every graph.
	Stores StorePolicy
	// Radix caps the Stockham stage radix of the power-of-two sub-plans at
	// 2, 4 or 8 (0 and 16 are the default chain).
	Radix int
	// CopyLoads keeps the load leg's copy on the 2D graphs whose first
	// sweep would otherwise read the source in its place (Stage.FoldLoad).
	CopyLoads bool
}

var ablation atomic.Pointer[Ablation]

// SetAblation installs a for the plans built until the returned restore
// runs. It panics outside a test binary, and on a radix cap fft1d refuses.
func SetAblation(a Ablation) (restore func()) {
	if !testing.Testing() {
		panic("stagegraph: SetAblation outside a test binary")
	}
	if err := fft1d.CheckRadix("stagegraph", a.Radix); err != nil {
		panic(err)
	}
	prev := ablation.Swap(&a)
	return func() { ablation.Store(prev) }
}

func current() Ablation {
	if a := ablation.Load(); a != nil {
		return *a
	}
	return Ablation{}
}

// Plan1D returns the 1D plan of extent n that a graph's pencils of that
// length run.
func Plan1D(n int) *fft1d.Plan { return fft1d.NewPlanRadix(n, current().Radix) }

package stagegraph

import (
	"sync/atomic"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/machine"
)

// Ablation is the one seam for the schedules no product configuration
// selects: the oracle and A/B variants the tests hold the product graph to.
// Its zero value is the product — store-folded, the store tier, the load
// fold and the prefetch chosen from the footprint (legModes), radix-16 chains,
// cold store targets pre-faulted, sized by this host — and only a test
// binary can install another
// (SetAblation). It is read where graphs (Pencils.Build), runners
// (NewRunner) and the 1D sub-plans (Plan1D) are built, so a plan keeps the
// schedule it was built under.
type Ablation struct {
	// NoFold turns both store folds off: the trailing trivial-twiddle
	// radix-4 butterfly stays in the compute leg instead of riding the
	// scatter, and the soft DMA's streaming stages keep their store leg
	// instead of writing the last sweep through the rotation
	// (Stage.FoldStore).
	NoFold bool
	// Stores forces cached (StoreRegular) or streaming (StoreNonTemporal)
	// block stores on every graph.
	Stores StorePolicy
	// Radix caps the Stockham stage radix of the power-of-two sub-plans at
	// 2, 4 or 8 (0 and 16 are the default chain).
	Radix int
	// CopyLoads keeps the load leg's copy on every graph whose first sweep
	// would otherwise read the source in its place (Stage.FoldLoad), and
	// with it turns the soft DMA's next-block prefetch and store fold off
	// (Stage.Prefetch, Stage.FoldStore).
	CopyLoads bool
	// NoPrefault leaves cold store targets to fault in inside the streaming
	// stores instead of pre-faulting them before a run (Runner.Run).
	NoPrefault bool
	// Host, where its fields are non-zero, sizes graphs as on a host with
	// that block budget and LLC instead of this one, so graph text written
	// on one machine can be compared on any other.
	Host HostSizes
}

// HostSizes is what Pencils.Build reads of the host: the L2-derived block
// budget and the last-level cache. A zero field reads this host's.
type HostSizes struct {
	BufferElems int
	LLCBytes    int
}

func (h HostSizes) bufferElems() int {
	if h.BufferElems != 0 {
		return h.BufferElems
	}
	return machine.PreferredBufferElems()
}

func (h HostSizes) llcBytes() int {
	if h.LLCBytes != 0 {
		return h.LLCBytes
	}
	return machine.HostLLCBytes()
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

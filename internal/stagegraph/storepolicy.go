package stagegraph

import "repro/internal/layout"

// StorePolicy selects how a compiled graph's block stores reach memory:
// StoreAuto in every product graph, the forced tiers through Ablation.Stores.
// The paper's bandwidth model charges one load and one store stream per
// stage, but a cached (write-allocate) store is really two: the CPU
// reads each destination line for ownership before overwriting it. When
// a transform's per-stage destination footprint exceeds the LLC those
// RFO reads are pure DRAM traffic and the measured store bandwidth falls
// to ~2/3 of the model. Streaming (non-temporal) stores write-combine
// straight to memory and recover the modelled two-stream rate — but for
// cache-resident transforms they evict data the next stage is about to
// load, so the choice is footprint-dependent. Below the switch the cached
// store kernels prefetch their lines for ownership a few blocks ahead
// (PREFETCHW), which hides the reads' latency though not their traffic.
type StorePolicy int

const (
	// StoreAuto picks streaming stores iff the per-stage destination
	// footprint exceeds half the last-level cache (leaving room for the
	// source stream) and the host has the streaming tier.
	StoreAuto StorePolicy = iota
	// StoreRegular forces cached stores.
	StoreRegular
	// StoreNonTemporal forces streaming stores wherever the tier exists.
	StoreNonTemporal
)

// Decide reports whether a transform whose per-stage destination
// footprint is destBytes should use streaming stores on a host whose
// last-level cache holds llcBytes.
func (p StorePolicy) Decide(destBytes, llcBytes int) bool {
	switch p {
	case StoreRegular:
		return false
	case StoreNonTemporal:
		return layout.NonTemporalAvailable()
	}
	return layout.NonTemporalAvailable() && !fitsLLC(destBytes, llcBytes)
}

// fitsLLC reports whether a per-stage footprint of `bytes` fits in half a
// last-level cache of llcBytes, leaving the other half to the stage's source
// stream; an unknown LLC (≤ 0) counts as fitting. It is the one footprint rule
// of a product graph: outside it a store streams past the cache (StoreAuto,
// where the host has the tier) and a load copies in; inside it a store stays
// cached and a 2D stage's first sweep reads its source in place of the load
// leg (Stage.FoldLoad) — on every host, streaming tier or not.
func fitsLLC(bytes, llcBytes int) bool {
	return llcBytes <= 0 || bytes <= llcBytes/2
}

// legModes is the leg policy: it returns stage st, its geometry set, with
// every leg mode set — NonTemporal, StoreRadix, FoldLoad, Prefetch and
// FoldStore — from the per-stage footprint (bytes, against the host's LLC),
// graph p's domain, rank and partition, the stage's pencil c and geometry,
// and the block budget. The lane count is not an input: each lane runs its
// share of a stage through the same legs, with its own prefetch cursor and
// sink. Ablation.Stores forces the tier, which the rest follows; NoFold and
// CopyLoads override after it.
//
//   - Tier: streaming stores past half the LLC (Decide); WriteC and
//     pair-packed real destinations ignore the flag at store time.
//   - Radix-4 store: the store applies the trailing trivial-twiddle radix-4
//     butterfly of a chain that ends in one while the block is cache-hot,
//     unless a real hook needs the finished transform or the store stages.
//   - Load fold: inside the LLC a 2D stage's load is an in-cache copy the
//     first sweep reads again, so the sweep reads the source (EXPERIMENTS.md
//     "Cache-regime loads fold into the first sweep").
//   - Soft DMA: past it, where the stores stream, a complex unsharded
//     stage's codelets ask for the lane's next block while it computes, so
//     the first sweep reads it from L2 and the load's copy goes; a fold with
//     no prefetch read slower than the copy. Real row stages' hooks work on
//     the loaded half, and a shard's slab keeps its measured schedule.
//   - Store fold: those stages' last pass streams through the rotation into
//     the destination where the kernels' sink takes it and the block fits
//     the budget; a unit past it (4096²'s 512 KiB cols) read slower folded,
//     on one lane and on two (EXPERIMENTS.md "One lane's soft DMA", its
//     store half, and "Soft DMA on every lane").
func legModes(ab Ablation, p Pencils, c pencil, st Stage, bytes, budget int) Stage {
	llc := ab.Host.llcBytes()
	st.NonTemporal = ab.Stores.Decide(bytes, llc)
	if c.pre == nil && c.post == nil && !st.StoreFromStaging && c.plan.FoldRadix() == 4 && c.blocks%4 == 0 {
		st.StoreRadix = 4
	}
	softDMA := st.NonTemporal && p.Real == nil && p.Shards <= 1
	st.FoldLoad = p.Real == nil && (softDMA || len(p.Dims) == 2 && fitsLLC(bytes, llc))
	st.FoldStore = softDMA && st.runMajor() && st.sinkTakes(c) && st.BlockElems() <= budget
	if ab.NoFold {
		st.StoreRadix, st.FoldStore = 0, false
	}
	if ab.CopyLoads {
		st.FoldLoad, st.FoldStore, softDMA = false, false, false
	}
	if softDMA {
		st.Prefetch = prefetchStep(st.BlockElems()*complexBytes, c.plan.Bodies(st.Units, c.lanes, st.StoreRadix != 0))
	}
	return st
}

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

// ApplyStorePolicy sets every stage's NonTemporal flag to nt and returns
// how many stages changed. Stages whose destination cannot take
// streaming stores (WriteC hooks, pair-packed real arrays) ignore the
// flag at store time, so setting it uniformly is harmless.
func ApplyStorePolicy(stages []Stage, nt bool) int {
	changed := 0
	for i := range stages {
		if stages[i].NonTemporal != nt {
			stages[i].NonTemporal = nt
			changed++
		}
	}
	return changed
}

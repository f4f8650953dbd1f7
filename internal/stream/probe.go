package stream

import (
	"time"

	"repro/internal/layout"
)

const (
	// probeElems is one probe array: 4 MiB of float64, 8 MiB for the pair.
	probeElems = 1 << 19
	// probeTrials copies are timed; the best is kept, as in STREAM.
	probeTrials = 6
)

// DRAMCopyGBs returns this host's memory copy bandwidth in GB/s, counted as
// STREAM counts copy (16 B per float64 copied): the best of probeTrials
// copies of one 4 MiB array onto another, both evicted from every cache
// level (layout.Evict) before each trial, so the copy reads memory even
// where the arrays fit the last-level cache many times over. The result is
// verified after the last trial. It allocates 8 MiB and takes about 13 ms.
// It returns 0 — the roofline gauges' "unknown" — on builds without a
// cache-flush kernel (non-amd64, purego) and when the copy does not verify.
func DRAMCopyGBs() float64 {
	return copyProbe(layout.Evict, func(dst, src []float64) { copy(dst, src) })
}

// copyProbe is DRAMCopyGBs with its eviction and its copy as parameters, so
// tests can run it un-evicted or with a faulty copy.
func copyProbe(evict func([]float64), cp func(dst, src []float64)) float64 {
	if !layout.EvictAvailable() {
		return 0
	}
	src := make([]float64, probeElems)
	dst := make([]float64, probeElems)
	for i := range src {
		src[i] = float64(i + 1)
	}
	var best time.Duration
	for t := 0; t < probeTrials; t++ {
		evict(src)
		evict(dst)
		start := time.Now()
		cp(dst, src)
		if el := time.Since(start); t == 0 || el < best {
			best = el
		}
	}
	// Verified once, at the end, as STREAM verifies: dst starts zero and
	// src holds no zero, so a copy that skips or corrupts any element in
	// the last trial fails.
	for i := range dst {
		if dst[i] != src[i] {
			return 0
		}
	}
	return float64(16*probeElems) / best.Seconds() / 1e9
}

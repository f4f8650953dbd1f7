package stream

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/layout"
)

const (
	// probeElems is one probe array: 4 MiB of float64, 8 MiB for the pair.
	probeElems = 1 << 19
	// probeTrials copies are timed; the best is kept, as in STREAM.
	probeTrials = 6
)

// DRAMCopyGBs returns this host's memory copy bandwidth in GB/s over every
// core, counted as STREAM counts copy (16 B per float64 copied): the best of
// probeTrials rounds in which each of GOMAXPROCS goroutines copies its own
// 4 MiB array onto another, all of them evicted from every cache level
// (layout.Evict) before each round, so the copies read memory even where
// the arrays fit the last-level cache many times over. That is the rate a
// plan's lanes, one per GOMAXPROCS, share; at GOMAXPROCS = 1 it is one
// core's copy. The result is verified after the last round. It allocates
// 8 MiB a goroutine and takes about 13 ms. It returns 0 — the roofline
// gauges' "unknown" — on builds without a cache-flush kernel (non-amd64,
// purego) and when a copy does not verify.
func DRAMCopyGBs() float64 {
	return copyProbe(runtime.GOMAXPROCS(0), layout.Evict, func(dst, src []float64) { copy(dst, src) })
}

// copyProbe is DRAMCopyGBs on a given number of goroutines, with its
// eviction and its copy as parameters, so tests can run it on one, un-evicted
// or with a faulty copy.
func copyProbe(goroutines int, evict func([]float64), cp func(dst, src []float64)) float64 {
	if !layout.EvictAvailable() {
		return 0
	}
	pairs := make([][2][]float64, max(goroutines, 1)) // {src, dst} a goroutine
	for i := range pairs {
		src := make([]float64, probeElems)
		for j := range src {
			src[j] = float64(j + 1)
		}
		pairs[i] = [2][]float64{src, make([]float64, probeElems)}
	}
	var best time.Duration
	for t := 0; t < probeTrials; t++ {
		for _, p := range pairs {
			evict(p[0])
			evict(p[1])
		}
		var wg sync.WaitGroup
		start := time.Now()
		for _, p := range pairs[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cp(p[1], p[0])
			}()
		}
		cp(pairs[0][1], pairs[0][0])
		wg.Wait()
		if el := time.Since(start); t == 0 || el < best {
			best = el
		}
	}
	// Verified once, at the end, as STREAM verifies: dst starts zero and
	// src holds no zero, so a copy that skips or corrupts any element in
	// the last round fails.
	for _, p := range pairs {
		for i := range p[1] {
			if p[1][i] != p[0][i] {
				return 0
			}
		}
	}
	return float64(16*probeElems*len(pairs)) / best.Seconds() / 1e9
}

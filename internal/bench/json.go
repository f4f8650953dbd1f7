package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/fft1d"
	"repro/internal/fft2d"
	"repro/internal/fft3d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rfft"
	"repro/internal/serve"
	"repro/internal/stream"
)

// JSONEntry is one benchmark's machine-readable result. GBPerS counts the
// bytes the kernel actually streams (read + write), so FracStreamPeak is
// directly the fraction of this host's STREAM copy bandwidth the kernel
// sustains — the paper's bandwidth-efficiency lens. Serving-layer entries
// additionally report request throughput (ReqPerS) and mean batch
// occupancy (AvgBatch), the coalescing acceptance metrics; the HTTP-level
// entries report ReqPerS and the bytes one exchange puts on the wire.
type JSONEntry struct {
	Name           string  `json:"name"`
	NsPerOp        float64 `json:"ns_per_op"`
	BPerOp         float64 `json:"b_per_op"`
	GBPerS         float64 `json:"gb_per_s"`
	FracStreamPeak float64 `json:"frac_stream_peak"`
	ReqPerS        float64 `json:"req_per_s,omitempty"`
	AvgBatch       float64 `json:"avg_batch,omitempty"`
	// WireBytesPerOp is the request plus response body bytes of one
	// http/transform exchange.
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`

	// Double-buffered transform entries additionally carry the telemetry
	// layer's per-stage roofline view of the benchmarked runs: how much of
	// the step budget overlapped data movement with compute, and what each
	// stage sustained against this host's STREAM peak.
	OverlapOccupancy float64     `json:"overlap_occupancy,omitempty"`
	Stages           []StageJSON `json:"stages,omitempty"`
}

// StageJSON is one pipeline stage's bandwidth as the telemetry measured it
// during the benchmark: separate load and store streams (each normalized
// per data worker) and the combined fraction of STREAM peak.
type StageJSON struct {
	Name           string  `json:"name"`
	LoadGBPerS     float64 `json:"load_gb_per_s"`
	StoreGBPerS    float64 `json:"store_gb_per_s"`
	FracStreamPeak float64 `json:"frac_stream_peak"`
}

// MetaJSON identifies the kernel configuration a report was measured
// under. Snapshots from different kernel tiers (AVX2 vs pure Go) are not
// comparable — benchcmp refuses to diff reports whose tiers differ
// rather than flag a tier switch as a performance change.
type MetaJSON struct {
	// CPUFeatures is cpufeat.Summary(): e.g. "avx avx2 fma avx512f
	// avx512dq", or "none". It carries the vector width the radix-16 stages
	// dispatch at; the tier below does not.
	CPUFeatures string `json:"cpu_features"`
	// KernelTier is kernels.Tier(): "avx2" or "generic" — the rounding
	// behaviour, identical for the 256- and 512-bit radix-16 kernels.
	KernelTier string `json:"kernel_tier"`
	// NonTemporal reports whether the streaming-store tier was available.
	NonTemporal bool `json:"non_temporal"`
	// GOMAXPROCS is the worker-pool parallelism the run was measured
	// with. Zero in reports written before this field existed.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// PhysicalCores is the number of physical cores on the host (logical
	// CPUs with hyperthread siblings deduplicated); bandwidth scales with
	// cores, not threads, so reports from different core counts are not
	// comparable. Zero in reports written before this field existed.
	PhysicalCores int `json:"physical_cores,omitempty"`
	// ShardWorkers is the loopback fleet size the shard3d entries were
	// measured on. Sharded rates scale with the fleet, so reports from
	// different worker counts are not comparable. Zero in reports without
	// shard entries.
	ShardWorkers int `json:"shard_workers,omitempty"`
}

// JSONReport is the full emission of WriteJSON: host identification, the
// STREAM copy bandwidth every entry is normalized against, and the entries.
// Reports are written as BENCH_<stamp>.json files and diffed across commits
// to track the performance trajectory. Meta is nil in reports written
// before the SIMD codelet tier existed.
type JSONReport struct {
	GOOS          string      `json:"goos"`
	GOARCH        string      `json:"goarch"`
	NumCPU        int         `json:"num_cpu"`
	Meta          *MetaJSON   `json:"meta,omitempty"`
	StreamCopyGBs float64     `json:"stream_copy_gb_per_s"`
	Entries       []JSONEntry `json:"entries"`
}

// CurrentMeta describes the kernel configuration this process runs with.
func CurrentMeta() MetaJSON {
	return MetaJSON{
		CPUFeatures:   cpufeat.Summary(),
		KernelTier:    kernels.Tier(),
		NonTemporal:   layout.NonTemporalAvailable(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		PhysicalCores: PhysicalCores(),
	}
}

// PhysicalCores counts the host's physical cores by deduplicating
// (physical package, core id) pairs from /proc/cpuinfo. On hosts without
// a parseable cpuinfo (non-Linux, restricted containers) it falls back
// to runtime.NumCPU(), i.e. logical CPUs.
func PhysicalCores() int {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.NumCPU()
	}
	type coreKey struct{ pkg, core string }
	seen := make(map[coreKey]bool)
	var pkg, core string
	flush := func() {
		if pkg != "" || core != "" {
			seen[coreKey{pkg, core}] = true
			pkg, core = "", ""
		}
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			flush()
			continue
		}
		switch strings.TrimSpace(k) {
		case "physical id":
			pkg = strings.TrimSpace(v)
		case "core id":
			core = strings.TrimSpace(v)
		}
	}
	flush()
	if len(seen) == 0 {
		return runtime.NumCPU()
	}
	return len(seen)
}

// JSONConfig sizes a WriteJSON run.
type JSONConfig struct {
	// Reps per case (default 5; the best rep is reported, as in STREAM).
	Reps int
	// MinIters per rep (default 1; raised automatically for fast cases so a
	// rep lasts at least ~10 ms).
	MinIters int
	// StreamElems sizes the STREAM normalization run (default 1<<22).
	StreamElems int
}

func (c JSONConfig) withDefaults() JSONConfig {
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.MinIters == 0 {
		c.MinIters = 1
	}
	if c.StreamElems == 0 {
		c.StreamElems = 1 << 22
	}
	return c
}

// jsonCase is one benchmark: fn runs a single op moving bytesPerOp bytes.
// snap, when set, reads the plan's cumulative telemetry after the timed
// runs to fill the entry's per-stage roofline fields.
type jsonCase struct {
	name       string
	bytesPerOp int64
	fn         func() error
	snap       func() obs.Snapshot
}

// runCase times a case the way testing.B would, without the testing package:
// calibrate an iteration count so one rep lasts ≳10 ms, keep the best ns/op
// across reps, and report allocations per op from the runtime's cumulative
// TotalAlloc counter.
func runCase(c jsonCase, cfg JSONConfig) (JSONEntry, error) {
	if err := c.fn(); err != nil { // warm-up and error check
		return JSONEntry{}, fmt.Errorf("bench %s: %w", c.name, err)
	}
	iters := cfg.MinIters
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := c.fn(); err != nil {
				return JSONEntry{}, fmt.Errorf("bench %s: %w", c.name, err)
			}
		}
		if time.Since(start) >= 10*time.Millisecond || iters >= 1<<20 {
			break
		}
		iters *= 2
	}
	var best float64
	var totalAlloc uint64
	var totalOps int
	var ms runtime.MemStats
	for r := 0; r < cfg.Reps; r++ {
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := c.fn(); err != nil {
				return JSONEntry{}, fmt.Errorf("bench %s: %w", c.name, err)
			}
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		totalAlloc += ms.TotalAlloc - alloc0
		totalOps += iters
		nsOp := float64(el.Nanoseconds()) / float64(iters)
		if r == 0 || nsOp < best {
			best = nsOp
		}
	}
	e := JSONEntry{
		Name:    c.name,
		NsPerOp: best,
		BPerOp:  float64(totalAlloc) / float64(totalOps),
	}
	if best > 0 {
		e.GBPerS = float64(c.bytesPerOp) / best // B/ns == GB/s
	}
	return e, nil
}

// WriteJSON measures the hot-path kernels and whole transforms and writes a
// JSONReport: the copy/rotation micro-kernels at both cachelines, the
// batched radix-8 sweep, and the double-buffered 2D/3D transforms, each
// normalized against this host's STREAM copy bandwidth.
func WriteJSON(w io.Writer, cfg JSONConfig) error {
	cfg = cfg.withDefaults()
	meta := CurrentMeta()
	rep := JSONReport{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Meta:          &meta,
		StreamCopyGBs: stream.BestCopyGBs(stream.Config{Elems: cfg.StreamElems, Trials: 3}),
	}

	cases, err := jsonCases(rep.StreamCopyGBs)
	if err != nil {
		return err
	}
	for _, c := range cases {
		e, err := runCase(c, cfg)
		if err != nil {
			return err
		}
		if rep.StreamCopyGBs > 0 {
			e.FracStreamPeak = e.GBPerS / rep.StreamCopyGBs
		}
		if c.snap != nil {
			s := c.snap()
			e.OverlapOccupancy = s.OverlapOccupancy
			for _, st := range s.Stages {
				e.Stages = append(e.Stages, StageJSON{
					Name:           st.Name,
					LoadGBPerS:     st.Load.GBs,
					StoreGBPerS:    st.Store.GBs,
					FracStreamPeak: st.FracPeak,
				})
			}
		}
		rep.Entries = append(rep.Entries, e)
	}

	serves, err := serveEntries()
	if err != nil {
		return err
	}
	rep.Entries = append(rep.Entries, serves...)

	https, err := httpEntries()
	if err != nil {
		return err
	}
	rep.Entries = append(rep.Entries, https...)

	shards, err := shardEntries(rep.StreamCopyGBs)
	if err != nil {
		return err
	}
	rep.Entries = append(rep.Entries, shards...)
	meta.ShardWorkers = shardFleetSize

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// serveEntries measures the serving layer's request throughput under the
// BenchmarkServeBatched workload: a stream of same-shape 1D requests from
// many concurrent submitters, once with coalescing (MaxBatch 32) and once
// executing one request at a time (MaxBatch 1). The coalesced entry's
// ReqPerS vs the unbatched one is the serving acceptance ratio (≥1.5× at
// batch occupancy ≥8). Both configs take the best of three interleaved
// trials so transient host load cannot skew the ratio. A third entry runs
// the coalesced configuration at n = 4096, where the transform rather than
// the hand-off is most of a request.
func serveEntries() ([]JSONEntry, error) {
	const n, nL2, submitters, perSubmitter = 32, 4096, 64, 300 // nL2: L2-resident, the ruler's serve1d size
	cfg := core.Default()
	cfg.DataWorkers, cfg.ComputeWorkers, cfg.Workers = 1, 1, 2
	cfg.BufferElems = 1 << 10

	run := func(n, maxBatch int) (reqPerSec, avgBatch float64, err error) {
		s := serve.New(serve.Options{Config: cfg, MaxBatch: maxBatch,
			Executors: 2, QueueDepth: 1024})
		var wg sync.WaitGroup
		errCh := make(chan error, submitters)
		start := time.Now()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				src := make([]complex128, n)
				for i := range src {
					src[i] = complex(float64((i+g)%23)-11, float64(i%19)-9)
				}
				dst := make([]complex128, n)
				for i := 0; i < perSubmitter; i++ {
					if err := s.Do(context.Background(), serve.Request{
						Rank: 1, Dims: [3]int{n}, Src: src, Dst: dst}); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		snap := s.Stats()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return 0, 0, err
		}
		select {
		case err := <-errCh:
			return 0, 0, err
		default:
		}
		return float64(submitters*perSubmitter) / elapsed.Seconds(), snap.AvgBatch, nil
	}

	// One warm-up pass (plan and twiddle construction), then the best of
	// three interleaved trials per entry.
	configs := []struct {
		name        string
		n, maxBatch int
	}{{"coalesced", n, 32}, {"unbatched", n, 1}, {"coalesced", nL2, 32}}
	best := make([]JSONEntry, len(configs))
	for trial := 0; trial < 4; trial++ {
		for i, c := range configs {
			rps, avgBatch, err := run(c.n, c.maxBatch)
			if err != nil {
				return nil, fmt.Errorf("bench serve: %w", err)
			}
			if trial > 0 && rps > best[i].ReqPerS {
				best[i] = JSONEntry{
					Name:    fmt.Sprintf("serve/BenchmarkServeBatched/%s/n=%d", c.name, c.n),
					NsPerOp: 1e9 / rps, ReqPerS: rps, AvgBatch: avgBatch,
				}
			}
		}
	}
	return best, nil
}

func jsonCases(streamGBs float64) ([]jsonCase, error) {
	var cases []jsonCase

	// Copy/rotation micro-kernels: 32 B of traffic per complex element.
	for _, mu := range []int{4, 8} {
		mu := mu
		const rows, cols = 256, 256
		total := rows * cols * mu
		src := make([]complex128, total)
		for i := range src {
			src[i] = complex(float64(i%23)-11, float64(i%19)-9)
		}
		dst := make([]complex128, total)
		cases = append(cases, jsonCase{
			name:       fmt.Sprintf("layout/TransposeBlocked/mu=%d", mu),
			bytesPerOp: int64(total) * 32,
			fn: func() error {
				layout.TransposeBlocked(dst, src, rows, cols, mu)
				return nil
			},
		})
	}
	for _, mu := range []int{4, 8} {
		mu := mu
		const k, n, mb = 32, 32, 64
		total := k * n * mb * mu
		src := make([]complex128, total)
		for i := range src {
			src[i] = complex(float64(i%23)-11, float64(i%19)-9)
		}
		dst := make([]complex128, total)
		cases = append(cases, jsonCase{
			name:       fmt.Sprintf("layout/Rotate3DBlocked/mu=%d", mu),
			bytesPerOp: int64(total) * 32,
			fn: func() error {
				layout.Rotate3DBlocked(dst, src, k, n, mb, mu)
				return nil
			},
		})
	}

	// Batched butterfly sweeps: each reads and writes every element once,
	// so 32 B of traffic per complex element. These are the kernels the SIMD
	// codelet tier accelerates; their frac_stream_peak is the direct
	// measure of how close the compute stage runs to the memory wall.
	{
		const n, pencils = 4096, 16
		src := make([]complex128, pencils*n)
		for i := range src {
			src[i] = complex(float64(i%23)-11, float64(i%19)-9)
		}
		dst := make([]complex128, len(src))
		tw16 := kernels.NewStageTwiddles(n, 16, kernels.Forward)
		tw8 := kernels.NewStageTwiddles(n, 8, kernels.Forward)
		tw4 := kernels.NewStageTwiddles(n, 4, kernels.Forward)
		bytes := int64(len(src)) * 32
		cases = append(cases,
			jsonCase{
				// The fused two-stage codelet: one pass where a radix-4
				// chain makes two, so frac_stream_peak near (or above) the
				// radix-4 entry at half the sweeps is the fusion win.
				name:       "kernels/BatchRadix16Step",
				bytesPerOp: bytes,
				fn: func() error {
					kernels.BatchRadix16Step(dst, src, pencils, n, n/16, 1, kernels.Forward, tw16)
					return nil
				},
			},
			jsonCase{
				name:       "kernels/BatchRadix8Step",
				bytesPerOp: bytes,
				fn: func() error {
					kernels.BatchRadix8Step(dst, src, pencils, n, n/8, 1, kernels.Forward, tw8)
					return nil
				},
			},
			jsonCase{
				name:       "kernels/BatchRadix4Step",
				bytesPerOp: bytes,
				fn: func() error {
					kernels.BatchRadix4Step(dst, src, pencils, n, n/4, 1, kernels.Forward, tw4)
					return nil
				},
			},
		)
	}

	// Whole double-buffered transforms, built the way the public API builds
	// them — core.Default() handed to the plan packages — so a snapshot
	// and a repro.New* plan cannot diverge (workers pinned 1/1 to keep
	// entries comparable across hosts). Traffic model: each of the D stages
	// reads and writes the full array once, 32·elems·D bytes — the paper's
	// minimal-traffic accounting (§III), so FracStreamPeak is comparable to
	// the figures' percent-of-peak axis.
	cfg := core.Default()
	cfg.DataWorkers, cfg.ComputeWorkers, cfg.Workers = 1, 1, 2
	cfg.RooflineGBs = streamGBs
	{
		const n, m = 256, 256
		elems := n * m
		p, err := fft2d.NewPlan(n, m, cfg)
		if err != nil {
			return nil, err
		}
		src := make([]complex128, elems)
		for i := range src {
			src[i] = complex(float64(i%23)-11, float64(i%19)-9)
		}
		dst := make([]complex128, elems)
		cases = append(cases, jsonCase{
			name:       "fft2d/DoubleBuf/256x256",
			bytesPerOp: int64(elems) * 32 * 2,
			fn:         func() error { return p.Transform(dst, src, fft1d.Forward) },
			snap:       p.Observability,
		})
	}
	{
		const k, n, m = 64, 64, 64
		elems := k * n * m
		p, err := fft3d.NewPlan(k, n, m, cfg)
		if err != nil {
			return nil, err
		}
		src := make([]complex128, elems)
		for i := range src {
			src[i] = complex(float64(i%23)-11, float64(i%19)-9)
		}
		dst := make([]complex128, elems)
		cases = append(cases, jsonCase{
			name:       "fft3d/DoubleBuf/64x64x64",
			bytesPerOp: int64(elems) * 32 * 3,
			fn:         func() error { return p.Transform(dst, src, fft1d.Forward) },
			snap:       p.Observability,
		})
	}

	// Real-input transforms at the same shapes. The packed-Hermitian
	// pipeline touches half the complex transform's bytes: per stage it
	// streams elems/2 packed lanes (16 B each) plus the 8 B/element real
	// endpoints, totalling 16·elems·D — half the 32·elems·D of the complex
	// model above. An entry running ≥ 1.5× the same-shape complex
	// transform's element rate is the two-for-one acceptance gate.
	{
		const n, m = 256, 256
		elems := n * m
		p, err := rfft.NewPlan2D(n, m, cfg)
		if err != nil {
			return nil, err
		}
		src := make([]float64, elems)
		for i := range src {
			src[i] = float64(i%23) - 11
		}
		dst := make([]complex128, p.SpectrumLen())
		cases = append(cases, jsonCase{
			name:       "rfft2d/DoubleBuf/256x256",
			bytesPerOp: int64(elems) * 16 * 2,
			fn:         func() error { return p.Forward(dst, src) },
			snap:       p.Observability,
		})
	}
	{
		const k, n, m = 64, 64, 64
		elems := k * n * m
		p, err := rfft.NewPlan3D(k, n, m, cfg)
		if err != nil {
			return nil, err
		}
		src := make([]float64, elems)
		for i := range src {
			src[i] = float64(i%23) - 11
		}
		dst := make([]complex128, p.SpectrumLen())
		cases = append(cases, jsonCase{
			name:       "rfft3d/DoubleBuf/64x64x64",
			bytesPerOp: int64(elems) * 16 * 3,
			fn:         func() error { return p.Forward(dst, src) },
			snap:       p.Observability,
		})
	}
	return cases, nil
}

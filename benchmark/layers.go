package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Per-layer measurement. Layers are measured from outside: by timing calls
// into their public functions and by reading counters the program already
// keeps. Every traced run reports every per-layer metric, so the probes of
// layers the workload does not touch run too, briefly, ahead of the
// workload itself — each traced run is a full layer profile of the commit.

// probeBudget bounds one L2-resident probe.
const probeBudget = 150 * time.Millisecond

// callGBs calls f (after reset, off the clock) until the budget is spent
// and returns bytes over the median call time, in GB/s.
func callGBs(bytes int, budget time.Duration, reset, f func()) float64 {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < budget; {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0).Nanoseconds()))
	}
	// The first call warms caches and page tables.
	return float64(bytes) / median(times[1:])
}

// probeStream is the STREAM-copy ruler: the median of 9 timed copy passes
// over arrays 4× the LLC (capped at 1 GiB each), with the passes' spread.
// It is printed beside computed_gbs and never gates anything; a best-of-N
// here is what made the old snapshots' denominator wander 12–25 GB/s.
func probeStream(m metrics) {
	bytes := min(4*machine.HostLLCBytes(), 1<<30)
	a, b := make([]float64, bytes/8), make([]float64, bytes/8)
	for i := range a {
		a[i] = float64(i & 0xff)
	}
	for i := 0; i < len(b); i += 512 {
		b[i] = 1 // fault b in a page at a time: a first touch through memmove is ~10× slower
	}
	copy(b, a)
	var gbs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		copy(b, a)
		gbs = append(gbs, 2*float64(bytes)/float64(time.Since(t0).Nanoseconds()))
	}
	med, sp := median(gbs), spread(gbs)
	m["stream.copy_gbs"], m["stream.copy_spread"] = med, sp
	noisy := ""
	if sp > 0.10 {
		noisy = "  FLAG: noisy — spread above 0.10, treat this whole run's rates as unsteady"
	}
	fmt.Printf("note: stream copy over 2×%d MiB, 9 passes: median %.2f GB/s, spread %.3f%s\n",
		bytes>>20, med, sp, noisy)
}

// probeKernels times the two batched butterfly sweeps the default radix
// chain is made of, on an L2-resident batch (16 pencils of 4096: 1 MiB in,
// 1 MiB out). 32 B per element: each is read and written once.
func probeKernels(m metrics) {
	const n, pencils = 4096, 16
	src, dst := make([]complex128, n*pencils), make([]complex128, n*pencils)
	fillComplex(src, 1, 900)
	tw16 := kernels.NewStageTwiddles(n, 16, kernels.Forward)
	tw4 := kernels.NewStageTwiddles(n, 4, kernels.Forward)
	m["kernels.radix16_gbs"] = callGBs(32*len(src), probeBudget, nil, func() {
		kernels.BatchRadix16Step(dst, src, pencils, n, n/16, 1, kernels.Forward, tw16)
	})
	m["kernels.radix4_gbs"] = callGBs(32*len(src), probeBudget, nil, func() {
		kernels.BatchRadix4Step(dst, src, pencils, n, n/4, 1, kernels.Forward, tw4)
	})
}

// probeFFT1D times whole batched pencil FFTs on 1 MiB of pencils, and
// first — while the process-wide plan cache is still cold — the three plan
// builds, each with its first transform because the plans fill their tables
// lazily. Must run before anything else builds a plan.
func probeFFT1D(m metrics) {
	const elems = 1 << 16
	pristine, x := make([]complex128, elems), make([]complex128, elems)
	fillComplex(pristine, 1, 901)
	ar := kernels.NewArena(2*elems, 0)

	sizes := []int{256, 1024, 4096}
	plans := make([]*fft1d.Plan, len(sizes))
	t0 := time.Now()
	for i, n := range sizes {
		plans[i] = fft1d.NewPlan(n)
		plans[i].BatchArena(x[:n], 1, fft1d.Forward, ar)
	}
	m["fft1d.plan_build_ms"] = ms(time.Since(t0))
	for i, n := range sizes {
		p := plans[i]
		m[fmt.Sprintf("fft1d.batch%d_gbs", n)] = callGBs(32*elems, probeBudget,
			func() { copy(x, pristine); ar.Reset() }, // unnormalised FFTs in place would overflow
			func() { p.BatchArena(x, elems/n, fft1d.Forward, ar) })
	}
}

// probeLayout times the store-side data movement: the strided block scatter
// with regular and with non-temporal stores, and the two blocked
// permutations built on it, at a cache-resident size and at mem3d's.
func probeLayout(m metrics) {
	// rotation geometry: k×n pencils of mb blocks of mu elements, block j of
	// a pencil landing k·n·mu elements after block j−1.
	rotate := func(dst, src []complex128, k, n, mb, mu int, scatter func(dst, src []complex128, blocks, blockLen, dstOff, dstStride int)) {
		row := mb * mu
		for g := 0; g < k*n; g++ {
			scatter(dst, src[g*row:(g+1)*row], mb, mu, g*mu, k*n*mu)
		}
	}
	{
		const k, n, mb, mu = 32, 32, 4, 8 // 512 KiB in, 512 KiB out
		src, dst := make([]complex128, k*n*mb*mu), make([]complex128, k*n*mb*mu)
		fillComplex(src, 1, 902)
		m["layout.scatter_gbs.l2"] = callGBs(32*len(src), probeBudget, nil, func() {
			rotate(dst, src, k, n, mb, mu, layout.ScatterBlocks)
		})
	}
	const k, n, mb, mu = 256, 256, 32, 8 // mem3d's rotation: 256 MiB in, 256 MiB out
	src, dst := make([]complex128, k*n*mb*mu), make([]complex128, k*n*mb*mu)
	fillComplex(src, 1, 903)
	bytes := 32 * len(src)
	m["layout.scatter_gbs.mem"] = callGBs(bytes, 0, nil, func() { rotate(dst, src, k, n, mb, mu, layout.ScatterBlocks) })
	m["layout.scatter_nt_gbs.mem"] = callGBs(bytes, 0, nil, func() { rotate(dst, src, k, n, mb, mu, layout.ScatterBlocksNT) })
	m["layout.rotate3d_gbs.mem"] = callGBs(bytes, 0, nil, func() { layout.Rotate3DBlocked(dst, src, k, n, mb, mu) })
	// big1d's geometry: a 4096×4096 matrix of elements as 4096×512 blocks.
	m["layout.transpose_gbs.mem"] = callGBs(bytes, 0, nil, func() { layout.TransposeBlocked(dst, src, 4096, 4096/mu, mu) })
}

// probePlanBuilds times the four plan constructors at their workloads'
// shapes, through the public API with no options (the internal NewPlan*
// plus the defaults a user gets). This is the part of setup_s that is not
// the first op.
func probePlanBuilds(m metrics) error {
	for _, b := range []struct {
		metric string
		sh     shape
	}{
		{"fft2d.plan_build_ms", shapeCache2d},
		{"fft3d.plan_build_ms", shapeMem3d},
		{"rfft.plan_build_ms", shapeReal3d},
		{"fft1dlarge.plan_build_ms", shapeBig1d},
	} {
		t := &xform{sh: b.sh}
		t0 := time.Now()
		if err := t.build(); err != nil {
			return fmt.Errorf("%s: %w", b.metric, err)
		}
		m[b.metric] = ms(time.Since(t0))
		t.close()
	}
	return nil
}

// probeSystems runs a short traced pass of each system workload other than
// the run's own, for its layer family.
func probeSystems(m metrics, root, own string, seed int64) error {
	for _, name := range []string{"serve1d", "http2d", "shard3d"} {
		if name == own {
			continue
		}
		w, err := newWorkload(name, root)
		if err != nil {
			return err
		}
		if err := w.prepare(seed); err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		if _, err := w.setup(); err != nil {
			w.teardown()
			return fmt.Errorf("%s probe: %w", name, err)
		}
		p := runPass(w, 1500*time.Millisecond, true)
		w.layers(m, p)
		w.teardown()
		if p.failed > 0 {
			return fmt.Errorf("%s probe: %w", name, p.firstErr)
		}
	}
	return nil
}

// shapeLayers reads what the workload's own plan shows: the forward and
// inverse spans (or, for a system workload, its reference plan timed
// directly), the executor's telemetry as deltas, and the replay.
func shapeLayers(m metrics, w workload, p *pass, obsBefore repro.Observability) error {
	t := w.ref()
	fwd := spanDurations(p.recs, "forward")
	inv := spanDurations(p.recs, "inverse")
	runs := p.ok()
	if len(fwd) == 0 {
		// System workload: its transforms ran in other goroutines or
		// processes; time the same shape through the public API here.
		obsBefore = t.obs()
		for runs = 0; runs < 5; runs++ {
			f, i, err := t.roundTrip(nil, -1, 0)
			if err != nil {
				return err
			}
			fwd, inv = append(fwd, ms(f)), append(inv, ms(i))
		}
	}
	m["repro.forward_ms_p50"] = median(fwd)
	m["repro.inverse_ms_p50"] = median(inv)
	m["repro.first_op_ms"] = ms(t.firstOp)
	m["repro.max_rel_err"] = t.relErr()
	m["repro.allocs_per_op"] = ratio(float64(p.mallocs), float64(p.attempted))
	stagegraphLayers(m, obsBefore, t.obs(), runs)
	replay(m, t, median(fwd))
	return nil
}

// stagegraphLayers turns two Observability() snapshots into the executor's
// per-layer numbers over the ops between them.
func stagegraphLayers(m metrics, a, b repro.Observability, ops int) {
	dw, cw := float64(max(b.DataWorkers, 1)), float64(max(b.ComputeWorkers, 1))
	wall := float64(b.WallNs - a.WallNs)
	var loadBytes, loadNs, computeNs float64
	minStore := 0.0
	for i, st := range b.Stages {
		var pa obs.StageSnapshot
		if i < len(a.Stages) {
			pa = a.Stages[i]
		}
		loadBytes += float64(st.Load.Bytes - pa.Load.Bytes)
		loadNs += float64(st.Load.Ns - pa.Load.Ns)
		computeNs += float64(st.ComputeNs - pa.ComputeNs)
		if ns := float64(st.Store.Ns - pa.Store.Ns); ns > 0 {
			gbs := float64(st.Store.Bytes-pa.Store.Bytes) * dw / ns
			if minStore == 0 || gbs < minStore {
				minStore = gbs
			}
		}
	}
	m["stagegraph.load_gbs"] = ratio(loadBytes*dw, loadNs)
	m["stagegraph.store_gbs.min"] = minStore
	m["stagegraph.compute_share"] = ratio(computeNs/cw, wall)
	m["stagegraph.barrier_wait_share"] = ratio(float64(b.BarrierWaitNs-a.BarrierWaitNs), (dw+cw)*wall)
	m["stagegraph.overlap_occupancy"] = ratio(float64(b.BothBusySteps-a.BothBusySteps), float64(b.Steps-a.Steps))
	m["stagegraph.steps_per_op"] = ratio(float64(b.Steps-a.Steps), float64(ops))
}

// replay executes each leg of one forward transform of t's shape alone,
// through the owning layer's public function over the whole array, and sums
// them against the transform's wall: above 1 the pipeline's overlap is
// paying, below 1 there is time no leg owns (scheduling, barriers). A
// stand-in, from outside, for a closed per-stage budget. The legs are
// load = a full-array copy, compute = batched pencil FFTs over L2-sized
// chunks, store = the blocked rotation or transposition.
func replay(m metrics, t *xform, forwardMs float64) {
	sh := t.sh
	n := sh.elems()
	if sh.kind == "r3d" {
		n /= 2 // the packed pipeline moves m/2 complex lanes per row
	}
	// Pencil length of each stage and the permutation that follows it.
	type stage struct {
		pencil int
		store  func(dst, src []complex128)
	}
	var stages []stage
	mu := 8
	rot := func(k, nn, mm int) func(dst, src []complex128) {
		return func(dst, src []complex128) { layout.Rotate3DBlocked(dst, src, k, nn, mm/mu, mu) }
	}
	tr := func(rows, cols int) func(dst, src []complex128) {
		return func(dst, src []complex128) { layout.TransposeBlocked(dst, src, rows, cols/mu, mu) }
	}
	d := sh.dims
	switch sh.kind {
	case "c3d":
		stages = []stage{{d[2], rot(d[0], d[1], d[2])}, {d[1], rot(d[2], d[0], d[1])}, {d[0], rot(d[1], d[2], d[0])}}
	case "r3d":
		h := d[2] / 2
		stages = []stage{{h, rot(d[0], d[1], h)}, {d[1], rot(h, d[0], d[1])}, {d[0], rot(d[1], h, d[0])}}
	case "c2d":
		stages = []stage{{d[2], tr(d[1], d[2])}, {d[1], tr(d[2], d[1])}}
	case "c1d":
		// six-step: n = n1·n2, transposes around two batches of row FFTs.
		n1 := 1
		for n1*n1 < n {
			n1 *= 2
		}
		n2 := n / n1
		stages = []stage{{1, tr(n1, n2)}, {n1, tr(n2, n1)}, {n2, tr(n1, n2)}}
	}
	src, dst := make([]complex128, n), make([]complex128, n)
	fillComplex(src, 1, 904)
	copy(dst, src)
	ar := kernels.NewArena(1<<17, 0)
	const chunk = 1 << 16
	var load, compute, store time.Duration
	for _, st := range stages {
		t0 := time.Now()
		copy(dst, src)
		load += time.Since(t0)

		if st.pencil > 1 {
			p := fft1d.NewPlan(st.pencil)
			t0 = time.Now()
			for off := 0; off < n; off += chunk {
				c := min(chunk, n-off)
				c -= c % st.pencil
				if c == 0 {
					c = st.pencil
				}
				ar.Reset()
				p.BatchArena(dst[off:off+c], c/st.pencil, fft1d.Forward, ar)
			}
			compute += time.Since(t0)
			copy(dst, src) // keep magnitudes bounded for the next stage
		}

		t0 = time.Now()
		st.store(dst, src)
		store += time.Since(t0)
	}
	m["replay.load_ms"] = ms(load)
	m["replay.compute_ms"] = ms(compute)
	m["replay.store_ms"] = ms(store)
	m["replay.sum_over_wall"] = ratio(ms(load+compute+store), forwardMs)
}

// runTraced is one traced run: layer probes, then the workload with every
// second op traced.
func runTraced(root, name string, w workload, seed int64, d time.Duration) (metrics, *pass, error) {
	m := metrics{}
	t0 := time.Now()
	lap := func(what string) {
		runtime.GC() // lets the next phase reuse the probes' arrays
		fmt.Printf("note: %s took %.1f s\n", what, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	probeFFT1D(m) // first: needs the cold plan cache
	probeKernels(m)
	lap("kernel and fft1d probes")
	probeStream(m)
	lap("stream probe")
	probeLayout(m)
	lap("layout probes")
	if err := probePlanBuilds(m); err != nil {
		return nil, nil, err
	}
	lap("plan-build probes")
	if err := probeSystems(m, root, name, seed); err != nil {
		return nil, nil, err
	}
	lap("system probes")

	if err := w.prepare(seed); err != nil {
		return nil, nil, err
	}
	_, err := setUp(w)
	defer w.teardown()
	if err != nil {
		return nil, nil, err
	}
	obsBefore := w.ref().obs()
	p := runPass(w, d, true)
	if len(p.lat) == 0 || len(p.tracedLat) == 0 {
		return nil, p, fmt.Errorf("traced pass too short for a traced op and its control: %v", p.firstErr)
	}
	w.layers(m, p)
	if err := shapeLayers(m, w, p, obsBefore); err != nil {
		return nil, p, err
	}
	control := durationsMs(p.lat)
	m["bench.trace_overhead"] = median(durationsMs(p.tracedLat))/median(control) - 1
	m["bench.op_ms_p50"] = median(control)
	m["bench.op_ms_p95"] = percentile(control, 0.95)
	m["bench.op_samples"] = float64(len(control))
	fmt.Printf("note: %d ops (%d traced), %d failed; op p95 %s\n", p.attempted, len(p.tracedLat), p.failed, p95Note(control))
	noteFootprint(w)

	path := filepath.Join(outDir(root), "trace-"+name+".json")
	if err := writeChromeTrace(path, p.recs); err != nil {
		return nil, p, err
	}
	fmt.Printf("note: trace written to %s\n", path)
	return m, p, nil
}

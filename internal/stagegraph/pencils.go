package stagegraph

import (
	"fmt"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// The one graph builder. The paper has one pattern — load contiguous →
// batched pencils → blocked-rotation store, repeated per axis — and every
// transform in the repository is that pattern with different data: the
// shape, which axis each stage transforms, where the stores land, what the
// endpoints hold (complex or pair-packed real), and which slab of the cube
// this executor owns. Pencils is that data; Build derives the stages.
//
// Layouts. Let the shape in μ-element blocks be A = [a₀ … a_{D-1}] (slowest
// first, a_{D-1} = m/μ). Stage i sees the array in the order A rotated
// right i times, transforms its last (fastest) axis, and stores every unit
// with that axis moved to the front:
//
//	block j of unit g  →  (j·G + g)·μ,   G = units in the stage
//
// so after D stages the data is back in its original order (the K
// rotations of §III; for D = 2 the blocked transpose and its inverse).
// With the slowest axis cut into Shards z-slabs (Table III) the same
// formula runs on local units, except that the middle stage's store
// addresses the global (y, xb, z) array — its unit index is widened from
// the slab's z range to the whole axis. The last stage's units are the
// shard's share of the (y, xb) pillars, and its store is the dense local
// formula again: it lands in the shard's own y-slab of the result.
// Shards = 1 is the single-socket form, as Table III says it must be.

// minStageIters is the pipeline-depth floor: block sizes are shrunk until
// every stage runs at least this many iterations, or one a lane past nine
// lanes (when the extent allows). A stage's iterations are what its lanes
// share, and lanes' shares differ by at most one block, so too-few,
// too-large blocks leave lanes idle at the stage barrier even when every
// byte still moves exactly once; at nine, two lanes split a stage 5:4.
const minStageIters = 9

// blockCap combines the buffer-capacity block limit with the pipeline-depth
// floor for a stage whose block loop has `extent` iterations of unit blocks,
// run on `lanes` lanes.
func blockCap(extent, bufBlocks, lanes int) int {
	c := max(1, bufBlocks)
	if byDepth := extent / max(minStageIters, lanes); byDepth >= 1 && byDepth < c {
		c = byDepth
	}
	return c
}

// largestDivisorAtMost returns the largest divisor of n that is ≤ limit, so
// every stage has an integral number of uniform blocks.
func largestDivisorAtMost(n, limit int) int {
	if limit >= n {
		return n
	}
	for d := limit; d >= 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

// smallestDivisorAtLeast returns the smallest divisor of n that is ≥ floor,
// n itself when floor ≥ n.
func smallestDivisorAtLeast(n, floor int) int {
	for d := max(floor, 1); d < n; d++ {
		if n%d == 0 {
			return d
		}
	}
	return n
}

// direction is a graph's per-run patch point: the transform sign the
// compute hooks read and the scale a normalised inverse applies in the last
// stage. The runner sets it under its lock before waking the lanes.
type direction struct {
	sign  int
	scale float64
}

// Array is one stage-boundary array: what stage i stores into and stage
// i+1 loads from. The zero value names the caller's destination array,
// bound per run.
type Array struct {
	// C is the backing array the next stage loads from.
	C []complex128
	// WriteC, when set, receives every store instead of a direct scatter
	// into C (a partitioned graph's stage-2 exchange; see Endpoint.WriteC).
	WriteC func(off, stride int, run []complex128)
	// Work, when ≥ 1, names part Work−1 of the work array a run leases
	// (Runner.Run), each part the size of the graph's array and holding
	// whatever the last run left: a stage writes all of its destination.
	Work int
}

// part returns the patch slot a run binds a to: the caller's destination or
// a work part; ok is false for an array fixed at build.
func (a Array) part() (slot int, ok bool) {
	if a.Work > 0 {
		return a.Work - 1, true
	}
	return callerOut, a.C == nil && a.WriteC == nil
}

func (a Array) sink() Endpoint {
	if a.WriteC != nil {
		return Endpoint{WriteC: a.WriteC}
	}
	return Endpoint{C: a.C}
}

// patch is one stage endpoint a run binds (Graph.bind): its Src or Dst to
// the caller's source or destination, or to work part arr ≥ 0.
type patch struct {
	stage int
	dst   bool
	arr   int
}

const callerIn, callerOut = -1, -2

// RealEnd makes a graph's outer endpoints pair-packed real rows: Dims then
// counts complex lanes (the last extent is l = m/2), the real side binds a
// []float64 through the fused pack/unpack of the load and store legs, and
// the spectrum side has rows of Pitch = l+1 coefficients. The hooks are the
// Hermitian post- and pre-passes around the half-length FFT; a new
// real-like transform kind is a RealEnd with different hooks.
type RealEnd struct {
	// Inverse selects the c2r graph: an entangle stage, the pencil stages
	// with their 1/len scales applied (in the compute leg, or on the way out
	// of a fold store), and a final row stage that retangles and stores real
	// rows. Like every graph, a real one runs in the direction of its Call.
	Inverse bool
	// Pitch is the spectrum row pitch in complex elements.
	Pitch int
	// Untangle turns `rows` transformed packed rows into packed spectrum
	// rows in place (forward, after the row FFT).
	Untangle func(x []complex128, rows int)
	// Entangle re-packs `rows` natural spectrum rows c (Pitch apart) into
	// rows of l lanes in t; row0 is the global index of the first row.
	Entangle func(t, c []complex128, rows, row0 int)
	// Retangle prepares `rows` packed rows for the inverse row FFT, in
	// place, including the row transform's 1/l.
	Retangle func(x []complex128, rows int)
}

// Pencils describes a multi-dimensional pencil transform.
type Pencils struct {
	// Pkg prefixes validation errors ("fft3d: μ=3 does not divide m=16").
	Pkg string
	// Dims are the complex extents, slowest first (1 to 3 of them); Plans[i]
	// is the 1D plan of Dims[i].
	Dims  []int
	Plans []*fft1d.Plan
	// Mu is the cacheline block length in complex elements; it must divide
	// the last extent. Zero selects machine.PreferredMu; real graphs take
	// the largest divisor of the last extent not above Mu (default 4)
	// instead, so odd half-lengths stay legal.
	Mu int
	// BufferElems is the per-lane block budget b (0 = the L2-derived
	// machine.PreferredBufferElems).
	BufferElems int
	// Lanes is the lane count the graph will run on (0 = one); past
	// minStageIters lanes it raises the pipeline-depth floor to one block a
	// lane.
	Lanes int
	// Shards cuts the slowest axis of a 3D transform into z-slabs and Index
	// names this executor's slab; the caller owns the barrier between the
	// middle stage's scatter and the last stage (see Graph.Cut). The last
	// stage writes the shard's own y-slab of the result, addressed from
	// zero, into the caller's destination.
	Shards, Index int
	// Real is nil for complex endpoints.
	Real *RealEnd
	// Mid[i] is the array between stage i and stage i+1; the last stage
	// stores into the caller's destination.
	Mid []Array
}

// Graph is a built stage graph with its patch points: which stages bind the
// caller's arrays and the direction the compute hooks read.
type Graph struct {
	stages []Stage
	// mu is the effective block length.
	mu int

	dir *direction
	// patches are the endpoints bound per run; a work part is partElems
	// long, at a whole-page offset in the run's work array.
	patches   []patch
	partElems int
	// batch graphs are one stage over the per-call rows, whose blocks the
	// runner cuts per call (Runner.Run).
	batch bool
	// scaleInStore places a run's non-zero Scale on the way out of the last
	// stage's run-major or radix-4 fold store into the caller's array,
	// riding its kernel; otherwise the last stage's compute hook applies it
	// to the block it just transformed. Either is bitwise fft1d.Scale over
	// the destination after the run.
	scaleInStore bool
}

// bind points the patched endpoints at the caller's arrays and the parts of
// the leased work array; zero Endpoints and a nil work array unbind.
func (g *Graph) bind(in, out Endpoint, work []complex128) {
	for _, p := range g.patches {
		e := out
		switch {
		case p.arr == callerIn:
			e = in
		case p.arr >= 0 && work != nil:
			o := p.arr * g.partStride()
			e = Endpoint{C: work[o : o+g.partElems]}
		case p.arr >= 0:
			e = Endpoint{}
		}
		if p.dst {
			g.stages[p.stage].Dst = e
		} else {
			g.stages[p.stage].Src = e
		}
	}
}

// partStride spaces the work parts whole 4 KiB pages apart.
func (g *Graph) partStride() int { return (g.partElems + 255) &^ 255 }

// workLen returns the length of the work array a run leases, 0 for none.
func (g *Graph) workLen() int {
	parts := 0
	for _, p := range g.patches {
		parts = max(parts, p.arr+1)
	}
	return parts * g.partStride()
}

// Cut divides the graph at stage `at` into two graphs that share the
// direction — the shape of a partitioned transform, whose caller separates
// the halves with its own barrier.
func (g *Graph) Cut(at int) (front, back *Graph) {
	f, b := *g, *g
	f.stages, b.stages = g.stages[:at], g.stages[at:]
	f.patches, b.patches = nil, nil
	for _, p := range g.patches {
		if p.stage < at {
			f.patches = append(f.patches, p)
		} else {
			p.stage -= at
			b.patches = append(b.patches, p)
		}
	}
	return &f, &b
}

// pencil is one derived stage before it becomes a Stage.
type pencil struct {
	name    string
	units   int // units this executor runs over the whole stage
	blocks  int // pencil length in μ-blocks
	plan    *fft1d.Plan
	lanes   int
	rotate  bool    // blocked rotation (else rows go back where they came from)
	pitch   int     // destination row pitch in elements (0 = dense) …
	rowBlks int     // … of rows this many blocks long (rotating stages)
	scale   float64 // fixed scale applied after the transform (0 = none)
	pre     func(x []complex128, rows int)
	post    func(x []complex128, rows int)
	remap   func(g int) int // local unit → unit index in the destination array
	dstUnit int             // G of the destination array (0 = units)
}

// Check validates the descriptor's shape, μ and partition — everything
// Build can refuse before it is handed arrays — and returns the effective μ.
func (p Pencils) Check() (mu int, err error) {
	D := len(p.Dims)
	if D < 1 || D > 3 || len(p.Plans) != D {
		return 0, fmt.Errorf("%s: %d extents with %d plans, need 1 to 3 of each", p.Pkg, D, len(p.Plans))
	}
	last := p.Dims[D-1]
	mu = p.Mu
	switch {
	case p.Real != nil && mu == 0:
		mu = 4
	case mu == 0:
		mu = machine.PreferredMu(last)
	}
	if mu < 1 {
		return 0, fmt.Errorf("%s: μ=%d, need ≥ 1", p.Pkg, mu)
	}
	if p.Real != nil {
		mu = largestDivisorAtMost(last, mu)
	}
	if last%mu != 0 {
		return 0, fmt.Errorf("%s: μ=%d does not divide m=%d", p.Pkg, mu, last)
	}
	if sk := p.Shards; sk > 1 {
		if D != 3 || p.Real != nil {
			return 0, fmt.Errorf("%s: only complex 3D transforms partition", p.Pkg)
		}
		if p.Index < 0 || p.Index >= sk {
			return 0, fmt.Errorf("%s: shard index %d of %d", p.Pkg, p.Index, sk)
		}
		if k := p.Dims[0]; k%sk != 0 {
			return 0, fmt.Errorf("%s: shards=%d does not divide k=%d", p.Pkg, sk, k)
		}
		if n := p.Dims[1]; n%sk != 0 {
			return 0, fmt.Errorf("%s: shards=%d does not divide n=%d", p.Pkg, sk, n)
		}
	}
	return mu, nil
}

// Build derives the stage graph.
func (p Pencils) Build() (*Graph, error) {
	mu, err := p.Check()
	if err != nil {
		return nil, err
	}
	D, sk := len(p.Dims), max(p.Shards, 1)
	last := p.Dims[D-1]
	ab := current()
	budget := p.BufferElems
	if budget == 0 {
		budget = ab.Host.bufferElems()
	}

	// Axis lengths in blocks, in stage order: stage i transforms axis
	// D-1-i, whose pencils are blocks[i] μ-blocks long.
	total := 1 // N/μ
	for _, d := range p.Dims {
		total *= d
	}
	total /= mu
	// Every stage writes this executor's share of the array once, N/sk
	// elements: a shard's stores fill its own socket's or node's LLC
	// (Table III).
	bytes := total / sk * mu * complexBytes
	g := &Graph{mu: mu, dir: &direction{}, partElems: total / sk * mu}
	var chain []pencil
	for i := 0; i < D; i++ {
		axis := D - 1 - i
		blocks := p.Dims[axis]
		lanes := mu
		if i == 0 {
			blocks, lanes = last/mu, 1
		}
		chain = append(chain, pencil{
			name: axisName(D, axis, p.Real), units: total / blocks / sk, blocks: blocks,
			plan: p.Plans[axis], lanes: lanes, rotate: true,
		})
	}
	if sk > 1 {
		// Table III. Stage 2 scatters into the global (y, xb, z) array: its
		// units (xb, zl) widen to (xb, z). Stage 3 runs this shard's share of
		// the (y, xb) pillars into its own y-slab, the dense local formula.
		k, ksl, idx := p.Dims[0], p.Dims[0]/sk, p.Index
		chain[1].remap = func(g int) int { return g/ksl*k + idx*ksl + g%ksl }
		chain[1].dstUnit = chain[1].units * sk
	}

	var entangle *pencil
	if r := p.Real; r != nil {
		if D == 1 {
			// One row stage per direction, rows back where they came from;
			// the runner cuts each call's rows into blocks.
			chain[0].rotate, chain[0].units = false, 1
			g.batch = true
		}
		if !r.Inverse {
			chain[0].post = r.Untangle
			chain[D-1].pitch, chain[D-1].rowBlks = r.Pitch, last/mu
		} else {
			// entangle → pencil stages (scaled) → rows⁻¹. The entangle stage
			// takes the forward row stage's place and rotation; the row
			// transform moves to the end of the chain.
			rows := chain[0]
			rows.name, rows.rotate = "i"+rows.name, false
			rows.pre = r.Retangle
			entangle = &pencil{name: "entangle", units: chain[0].units, blocks: chain[0].blocks,
				rotate: true}
			for i := 1; i < D; i++ {
				chain[i].name = "i" + chain[i].name
				chain[i].scale = 1 / float64(p.Dims[D-1-i])
			}
			if D == 1 {
				chain = chain[:0] // the one stage entangles, retangles and transforms
				entangle.name, entangle.rotate = rows.name, false
				entangle.plan, entangle.pre = rows.plan, rows.pre
			} else {
				chain = append(chain[1:], rows)
			}
		}
	}

	// Block sizing: whole units per block, an integral number of blocks per
	// stage, capped by the buffer budget and the pipeline-depth floor.
	size := func(units, unitLen int) int {
		if g.batch {
			return 1
		}
		return largestDivisorAtMost(units, blockCap(units, budget/unitLen, p.Lanes))
	}

	nStages := len(chain)
	if entangle != nil {
		nStages++
	}
	if len(p.Mid) != nStages-1 {
		return nil, fmt.Errorf("%s: %d stages need %d intermediate arrays, got %d", p.Pkg, nStages, nStages-1, len(p.Mid))
	}
	src := Array{} // the caller's source feeds stage 0
	bind := func(i int, st *Stage, dst Array) {
		if arr, ok := src.part(); i == 0 {
			g.patches = append(g.patches, patch{stage: i, arr: callerIn})
		} else if ok {
			g.patches = append(g.patches, patch{stage: i, arr: arr})
		} else {
			st.Src = Endpoint{C: src.C}
		}
		if arr, ok := dst.part(); ok {
			g.patches = append(g.patches, patch{stage: i, dst: true, arr: arr})
		} else {
			st.Dst = dst.sink()
		}
		src = dst
	}
	sinkOf := func(i int) Array {
		if i < nStages-1 {
			return p.Mid[i]
		}
		return Array{}
	}

	if e := entangle; e != nil {
		l, pitch := e.blocks*mu, p.Real.Pitch
		per := size(e.units, pitch)
		dst := sinkOf(0)
		st := Stage{
			Name: e.name, Iters: e.units / per, Units: per, UnitLen: pitch,
			StoreUnits: per, StoreLen: l, StoreFromStaging: true,
			Rot: rotation(*e, mu),
		}
		st = legModes(ab, p, *e, st, bytes, budget)
		ent, plan, pre, dir := p.Real.Entangle, e.plan, e.pre, g.dir
		st.Compute = func(b *Buffers, a *kernels.Arena, src []complex128, iter int) {
			rows := len(src) / pitch // per, or a batch graph's rows a block
			t := b.T[:rows*l]
			ent(t, src, rows, iter*rows)
			if plan != nil { // the one stage of a 1D inverse, hence also last
				pre(t, rows)
				plan.BatchLanesArena(t, t, rows, 1, dir.sign, a)
				if dir.scale != 0 {
					fft1d.Scale(t, dir.scale)
				}
			}
		}
		bind(0, &st, dst)
		g.stages = append(g.stages, st)
	}
	for ci := range chain {
		c := chain[ci]
		i := len(g.stages)
		unitLen := c.blocks * mu
		per := size(c.units, unitLen)
		dst := sinkOf(i)
		st := Stage{
			Name: c.name, Iters: c.units / per, Units: per, UnitLen: unitLen,
			Rot: rotation(c, mu),
		}
		st = legModes(ab, p, c, st, bytes, budget)
		if st.StoreRadix != 0 { // a real inverse pencil's 1/n rides the fold store
			st.StoreScale, c.scale = c.scale, 0
		}
		st.Compute = c.compute(g.dir, unitLen, st.StoreRadix != 0, i == nStages-1)
		bind(i, &st, dst)
		g.stages = append(g.stages, st)
	}

	// A run-major or folded last store into the caller's array applies the
	// scale on the way out, for no sweep at all; otherwise the last stage's
	// compute leg scales its blocks — the same fft1d.Scale on the same
	// values a pass over the destination would apply.
	lastSt := &g.stages[nStages-1]
	g.scaleInStore = lastSt.runMajor() || lastSt.StoreRadix != 0
	return g, nil
}

// sinkTakes reports whether the kernels' sink takes stage st's last Stockham
// pass (kernels.Sink.Takes): c's chain ends in a radix-8 or radix-16 stage,
// whose m = 1 pass runs s = n·lanes/r lanes, and the rotation's blocks are
// whole lines. A stage that passes writes its blocks through the sink
// whenever the destination starts a line.
func (st *Stage) sinkTakes(c pencil) bool {
	r := c.plan.SinkRadix()
	if r == 0 {
		return false
	}
	sk := kernels.Sink{Pitch: st.Rot.GStride, JStride: st.Rot.JStride, BlockLen: st.Rot.BlockLen}
	return sk.Takes(r, 1, c.plan.N()*c.lanes/r)
}

// prefetchStep is the bytes a codelet body asks for so that a block of
// blockBytes is asked for across the bodies one block's compute runs: whole
// lines, at least one a body. A chain with no codelet body (a pure-Go stage,
// a forced generic tier) counts as one, so the step, like the graph text,
// does not depend on the tier.
func prefetchStep(blockBytes, bodies int) int {
	lines := (blockBytes/64 + max(bodies, 1) - 1) / max(bodies, 1)
	return max(lines, 1) * 64
}

// axisName labels a stage by the axis it transforms: rows/cols in one and
// two dimensions, x/y/z pencils in three (real x rows are "x-rows": they
// are packed, untangled rows rather than plain pencils).
func axisName(D, axis int, real *RealEnd) string {
	if D < 3 {
		return [...]string{"cols", "rows"}[axis+2-D]
	}
	if axis == 2 && real != nil {
		return "x-rows"
	}
	return [...]string{"z-pencils", "y-pencils", "x-pencils"}[axis]
}

// rotation derives a stage's store descriptor. A rotating stage sends block
// j of unit g to (j·G + g)·μ in the destination; an identity stage sends it
// back to row g, block j. A pitch spaces the destination's rows further
// apart than their length (the real spectrum's Nyquist hole).
func rotation(c pencil, mu int) Rotation {
	remap := c.remap
	if remap == nil {
		remap = func(g int) int { return g }
	}
	if !c.rotate {
		rowLen := c.blocks * mu
		if c.pitch != 0 {
			rowLen = c.pitch
		}
		return Rotation{Blocks: c.blocks, BlockLen: mu, JStride: mu,
			Map: func(g, j int) int { return g*rowLen + j*mu }}
	}
	G := c.dstUnit
	if G == 0 {
		G = c.units
	}
	if c.pitch == 0 {
		rot := Rotation{Blocks: c.blocks, BlockLen: mu, JStride: G * mu,
			Map: func(g, j int) int { return (j*G + remap(g)) * mu }}
		if c.remap == nil {
			rot.GStride = mu // consecutive units land in consecutive blocks
		}
		return rot
	}
	// The last rotation lands in natural row-major order: block u = j·G + g
	// is block u mod rowBlks of row u / rowBlks.
	rowBlks, pitch := c.rowBlks, c.pitch
	return Rotation{Blocks: c.blocks, BlockLen: mu, JStride: G / rowBlks * pitch,
		Map: func(g, j int) int {
			u := j*G + remap(g)
			return u/rowBlks*pitch + u%rowBlks*mu
		}}
}

// compute derives a stage's compute hook: [pre] → batched transform (or its
// fold prefix) in the run's direction from the block's input into the lane's
// buffer → [post] → [scale], over the block's units (len(src)/unitLen: a
// batch graph's block is its share of the call's rows). Only real graphs
// have a pre hook, and they never fold their loads, so pre always works on
// the loaded buffer. The last stage applies the run's scale when the store does not
// (Graph.scaleInStore).
func (c pencil) compute(dir *direction, unitLen int, fold, last bool) ComputeFn {
	plan, lanes := c.plan, c.lanes
	return func(b *Buffers, a *kernels.Arena, src []complex128, _ int) {
		units := len(src) / unitLen
		x := b.C[:len(src)]
		if c.pre != nil {
			c.pre(x, units)
		}
		switch {
		case fold:
			plan.BatchLanesPrefixArena(x, src, units, lanes, dir.sign, a)
		case plan.BatchLanesSinkArena(x, src, units, lanes, dir.sign, &b.Sink, a):
			// The block left through the sink: a store-folding stage has no
			// post hook and no compute-leg scale.
			b.Sunk = true
			return
		}
		if c.post != nil {
			c.post(x, units)
		}
		scale := c.scale
		if last {
			scale = dir.scale
		}
		if scale != 0 {
			fft1d.Scale(x, scale)
		}
	}
}

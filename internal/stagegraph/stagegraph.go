// Package stagegraph is the stage-graph intermediate representation that
// all of the repo's pipelined transforms compile into, plus the single
// multi-stage executor that runs a compiled graph end to end.
//
// One Stage describes the paper's load → batched-pencil-compute →
// blocked-rotation-store pattern declaratively: block geometry (how many
// uniform units per pipeline block and how long each is), source and
// destination arrays, the rotation/transpose descriptor mapping every
// stored cacheline block to its destination offset, and the compute hook
// (batched FFTs, scales, the real-input Hermitian passes). The executor
// (exec.go) runs a []Stage on lanes: each lane takes a contiguous share of
// every stage's blocks and runs each load → compute → store in turn, and the
// lanes meet at one barrier per stage boundary.
package stagegraph

import (
	"fmt"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
)

// Endpoint is one side of a stage's data movement: a complex-interleaved
// array, a pair-packed real array, or an opaque block writer (used by the
// multi-socket plans to route stores through NUMA traffic accounting).
// Exactly one representation must be set.
type Endpoint struct {
	C []complex128
	// R is a pair-packed real array: logical complex element o of the
	// endpoint is the float pair (R[2o], R[2o+1]). Real-input transforms
	// bind their []float64 rows here, so the real↔complex format change is
	// fused into the streaming load/store (8 B of traffic per real element,
	// 16 B per packed element — identical to the complex accounting unit).
	R []float64
	// WriteC, when set, receives every store instead of a direct copy
	// into C (destination endpoints only): run holds consecutive
	// Rot.BlockLen blocks, block i bound for offset off + i·stride — a
	// store unit's blocks in one call, so the sink settles its accounting
	// once a run rather than once a block.
	WriteC func(off, stride int, run []complex128)
}

func (e Endpoint) valid(dst bool) bool {
	switch {
	case e.WriteC != nil:
		return dst && e.C == nil && e.R == nil
	case e.R != nil:
		return e.C == nil
	default:
		return e.C != nil
	}
}

// Rotation is the blocked store descriptor (the paper's W write matrices):
// every store unit g is cut into Blocks cacheline blocks of BlockLen
// elements, and block j of unit g lands at destination offset Map(g, j).
// Map must be safe for concurrent use.
//
// JStride, when non-zero, declares the map affine in j:
// Map(g, j) = Map(g, 0) + j·JStride for every g. All of the repo's
// rotations are affine (a blocked transpose scatters a unit's blocks at a
// fixed stride), and declaring the stride lets the store run whole units
// through the register-blocked layout.ScatterBlocks kernels — one Map call
// and hoisted stride arithmetic per run instead of a Map call and a bounds-
// checked copy per block. Leave JStride zero for irregular maps; the store
// then falls back to calling Map per block.
//
// GStride, when non-zero, declares the map affine in g as well:
// Map(g+1, j) = Map(g, j) + GStride for every g and j. A dense rotation has
// GStride = BlockLen — block j of consecutive units lands in consecutive
// blocks — which is what lets a streaming store walk a pipeline block
// j-major and write each block index as one contiguous run (see store).
// Leave it zero where the map is not (a row pitch, a shard remap).
type Rotation struct {
	Blocks   int
	BlockLen int
	Map      func(g, j int) int
	JStride  int
	GStride  int
}

// ComputeFn runs the batched pencil kernel of one stage over every unit of
// iteration `iter`, leaving the result in the lane's buffer b. src is the
// block's input, BlockElems long: b.C itself after a load leg, or the
// block's slice of Src.C when the stage folds its load (Stage.FoldLoad).
// The arena is the lane's private scratch, Reset before every op; kernels
// bump-allocate ping-pong buffers from it instead of the heap.
type ComputeFn func(b *Buffers, a *kernels.Arena, src []complex128, iter int)

// Stage is one declarative load/compute/store stage of a transform.
type Stage struct {
	// Name labels the stage in descriptions and stats.
	Name string
	// Iters is the pipeline block count (the paper's knm/b).
	Iters int
	// Units × UnitLen elements are loaded contiguously per block from Src
	// (rows, xb-rows, (xb,z)-units, ... — the stage's atom of compute).
	Units   int
	UnitLen int
	// Src and Dst are the stage's memory endpoints. Consecutive stages
	// chain: stage k+1's Src is stage k's Dst.
	Src, Dst Endpoint
	// Compute is the batched pencil kernel of one block.
	Compute ComputeFn
	// FoldLoad drops the load leg: the executor hands the compute hook the
	// block's slice of Src.C, and the first Stockham sweep reads it out of
	// place into the lane's buffer. It saves the copy where that copy is an
	// in-cache one the sweep would read a second time, or where Prefetch
	// has brought the block into L2; Pencils.Build sets it for complex 2D
	// graphs whose arrays fit in half the LLC (fitsLLC) and on every
	// prefetching stage. Src must be a plain complex array.
	FoldLoad bool
	// Prefetch, when non-zero, is one lane's soft DMA: while the lane
	// computes a block, the codelets ask for the lane's next block of Src
	// into L2, Prefetch bytes a butterfly body (kernels.Prefetch), so the
	// whole block is requested by the end of the compute. Pencils.Build
	// sets it on one-lane complex graphs whose stores stream, with
	// FoldLoad. Src must be a plain complex array.
	Prefetch int
	// FoldStore drops the store leg, soft DMA's other half: the compute's
	// last Stockham pass writes each output vector through the rotation
	// straight into Dst with streaming stores (kernels.Sink), StoreScale
	// included, instead of into the lane's buffer for a run-major gather to
	// read back out. A block whose pass the kernels decline (a radix-4 last
	// stage, a destination off the line grid, the pure-Go tier) keeps its
	// store leg. Pencils.Build sets it on the prefetching stages whose store
	// runs run-major and whose block fits the buffer budget; it needs
	// runMajor and no staging, and takes effect only on a plain complex Dst
	// whose compute hook passes the buffer's sink on (Buffers.Sink).
	FoldStore bool
	// StoreUnits × StoreLen re-tiles the buffer for the store when the
	// store granularity differs from the load's (the real-inverse entangle
	// stage loads spectrum rows of l+1 and stores packed rows of l); zero
	// values inherit Units and UnitLen.
	StoreUnits int
	StoreLen   int
	// StoreFromStaging stores from the staging tile (Buffers.T) that
	// the compute filled — the entangle stage re-packs into them — instead
	// of the main buffer.
	StoreFromStaging bool
	// NonTemporal routes this stage's block stores through the streaming
	// (cache-bypassing) scatter tier when the pattern meets its alignment
	// contract. Set it when the destination footprint exceeds the LLC:
	// regular stores would read each line for ownership before
	// overwriting it; streaming stores skip that third traffic stream.
	// StorePolicy is the plan-time decider. Harmless (silent fallback) on
	// hosts without the tier.
	NonTemporal bool
	// StoreRadix, when 4, folds the final Stockham stage of the pencil
	// transform into the store leg: the compute hook runs the plan's stage
	// prefix (fft1d.BatchLanesPrefixArena) and the store applies the
	// trailing trivial-twiddle radix-4 butterfly on the fly while
	// scattering — output block j of a store unit is combined from input
	// blocks (j mod Blocks/4) + k·Blocks/4 in the cache-hot buffer, so the
	// final sweep costs no extra pass over the buffer. Requires no staging
	// and Rot.Blocks divisible by 4. StoreSign is the
	// butterfly's transform sign; plans patch it per run alongside the
	// compute sign. Zero means a plain store.
	StoreRadix int
	StoreSign  int
	// StoreScale, when non-zero, multiplies every element on its way out of
	// a run-major or radix-4 fold store into a plain complex array (see
	// scalesInStore) — bitwise fft1d.Scale over the destination afterwards,
	// for no extra pass. Runners patch it per run with the 1/N of a
	// normalised inverse; a stage that stores any other way refuses it
	// (validate).
	StoreScale float64
	// Rot maps stored blocks to destination offsets; Blocks·BlockLen must
	// equal the store unit length.
	Rot Rotation
}

func (st *Stage) storeGeometry() (units, unitLen int) {
	units, unitLen = st.StoreUnits, st.StoreLen
	if units == 0 {
		units = st.Units
	}
	if unitLen == 0 {
		unitLen = st.UnitLen
	}
	return units, unitLen
}

// runMajor reports whether the store leg walks a pipeline block j-major —
// for each block index j one contiguous destination run of Units·BlockLen
// elements, gathered from the Units blocks UnitLen apart in the buffer —
// instead of unit-major. It needs a streaming stage (the order was measured
// only out of cache), a map affine in both indices whose units land adjacent
// and a plain store; where any of these fails (radix-4 fold stages, pitched
// spectrum rows, shard remaps) the unit-major walk stays. The destination
// must also be a plain complex array, which store and validate check once it
// is bound. A single-unit block's runs are single blocks — the unit-major
// order — and it still comes this way for the scale.
func (st *Stage) runMajor() bool {
	return st.NonTemporal && st.StoreRadix == 0 &&
		st.Rot.JStride != 0 && st.Rot.GStride == st.Rot.BlockLen
}

// scalesInStore reports whether the store leg can apply StoreScale: a
// run-major store or a radix-4 fold store (which multiplies each folded
// output as it leaves, in the fused kernel or in the scratch fold) into a
// plain complex array. A stage that folds its store into the last sweep
// runs run-major, and its sink carries the same scale (Stage.sink).
func (st *Stage) scalesInStore() bool {
	return (st.runMajor() || st.StoreRadix != 0) && st.Dst.C != nil
}

// BlockElems returns the buffer footprint of one pipeline block.
func (st *Stage) BlockElems() int { return st.Units * st.UnitLen }

func (st *Stage) validate(i int) error {
	if st.Iters < 1 {
		return fmt.Errorf("stagegraph: stage %d (%s): Iters=%d, need ≥ 1", i, st.Name, st.Iters)
	}
	if st.Units < 1 || st.UnitLen < 1 {
		return fmt.Errorf("stagegraph: stage %d (%s): units %d×%d, need ≥ 1", i, st.Name, st.Units, st.UnitLen)
	}
	if st.Compute == nil {
		return fmt.Errorf("stagegraph: stage %d (%s): nil Compute", i, st.Name)
	}
	if st.Rot.Map == nil {
		return fmt.Errorf("stagegraph: stage %d (%s): nil Rotation.Map", i, st.Name)
	}
	sunits, slen := st.storeGeometry()
	if st.Rot.Blocks*st.Rot.BlockLen != slen {
		return fmt.Errorf("stagegraph: stage %d (%s): rotation %d×%d ≠ store unit %d",
			i, st.Name, st.Rot.Blocks, st.Rot.BlockLen, slen)
	}
	if st.Rot.JStride != 0 && st.Rot.Blocks > 1 {
		if got, want := st.Rot.Map(0, 1), st.Rot.Map(0, 0)+st.Rot.JStride; got != want {
			return fmt.Errorf("stagegraph: stage %d (%s): JStride=%d inconsistent with Map: Map(0,1)=%d, want %d",
				i, st.Name, st.Rot.JStride, got, want)
		}
	}
	if st.Rot.GStride != 0 && st.Iters*sunits > 1 {
		if got, want := st.Rot.Map(1, 0), st.Rot.Map(0, 0)+st.Rot.GStride; got != want {
			return fmt.Errorf("stagegraph: stage %d (%s): GStride=%d inconsistent with Map: Map(1,0)=%d, want %d",
				i, st.Name, st.Rot.GStride, got, want)
		}
	}
	if st.FoldStore && (!st.runMajor() || st.StoreFromStaging) {
		return fmt.Errorf("stagegraph: stage %d (%s): FoldStore on a store that does not run run-major from the main buffer", i, st.Name)
	}
	if st.StoreScale != 0 && !st.scalesInStore() {
		return fmt.Errorf("stagegraph: stage %d (%s): StoreScale on a store that neither runs run-major nor folds into a complex array", i, st.Name)
	}
	if !st.Src.valid(false) {
		return fmt.Errorf("stagegraph: stage %d (%s): invalid Src endpoint", i, st.Name)
	}
	if (st.FoldLoad || st.Prefetch != 0) && st.Src.C == nil {
		return fmt.Errorf("stagegraph: stage %d (%s): FoldLoad and Prefetch need a complex Src array", i, st.Name)
	}
	if !st.Dst.valid(true) {
		return fmt.Errorf("stagegraph: stage %d (%s): invalid Dst endpoint", i, st.Name)
	}
	if st.StoreRadix != 0 {
		if st.StoreRadix != 4 {
			return fmt.Errorf("stagegraph: stage %d (%s): StoreRadix=%d, only 4 (or 0) supported",
				i, st.Name, st.StoreRadix)
		}
		if st.Rot.Blocks%4 != 0 {
			return fmt.Errorf("stagegraph: stage %d (%s): StoreRadix=4 needs Rot.Blocks%%4==0, got %d",
				i, st.Name, st.Rot.Blocks)
		}
		if st.StoreFromStaging {
			return fmt.Errorf("stagegraph: stage %d (%s): StoreRadix with staging store", i, st.Name)
		}
	}
	return nil
}

// Buffers is one lane's cache-resident block buffer: C receives a block's
// load and its compute result, and T is the staging tile of a stage whose
// compute re-packs into a separate tile (nil when no stage does). Sink is
// where a store-folding stage's compute may write the result instead
// (Stage.FoldStore; the zero Sink elsewhere), and Sunk reports that it did.
type Buffers struct {
	C, T []complex128
	Sink kernels.Sink
	Sunk bool
}

// complexBytes is the DRAM traffic of moving one complex element (two
// float64s), the unit the telemetry layer accounts in.
// It matches the ruler's computed_gbs model (32·elems·stages) at 16 B per
// direction per element, the quantity STREAM copy bandwidth is comparable against.
const complexBytes = 16

// load streams block `iter` from Src into the lane's buffer, contiguously,
// and returns the bytes it moved.
func (st *Stage) load(b *Buffers, iter int) int {
	n := st.BlockElems()
	base := iter * n
	if st.Src.R != nil {
		// Fused pair-pack: 2n reals stream in as n packed complex elements
		// — the same complexBytes per buffer element as every other load,
		// i.e. 8 B per real element.
		layout.PackPairs(b.C[:n], st.Src.R[2*base:], n)
	} else {
		layout.CopyStream(b.C[:n], st.Src.C[base:base+n])
	}
	return n * complexBytes
}

// prefetch returns the cursor a lane's compute of block iter hands its
// codelets: the lane's next block of Src, when the stage prefetches and the
// lane's share (which ends before hi) has one, else the empty cursor.
func (st *Stage) prefetch(iter, hi int) kernels.Prefetch {
	if st.Prefetch == 0 || iter+1 >= hi {
		return kernels.Prefetch{}
	}
	n := st.BlockElems()
	return kernels.NewPrefetch(st.Src.C[(iter+1)*n:(iter+2)*n], st.Prefetch)
}

// sink returns the sink a compute of block iter may write through: the
// block's run-major destination — unit g's block j at Map(g, 0) + j·JStride,
// consecutive units GStride apart — with the stage's StoreScale, when the
// stage folds its store into a plain complex array, else the zero Sink.
func (st *Stage) sink(iter int) kernels.Sink {
	if !st.FoldStore || st.Dst.C == nil {
		return kernels.Sink{}
	}
	return kernels.Sink{Dst: st.Dst.C, Off: st.Rot.Map(iter*st.Units, 0), Pitch: st.Rot.GStride,
		JStride: st.Rot.JStride, BlockLen: st.Rot.BlockLen, Scale: st.StoreScale}
}

// input is the block a compute op reads: the block's slice of Src.C when the
// stage folds its load, else the buffer its load leg filled.
func (st *Stage) input(b *Buffers, iter int) []complex128 {
	n := st.BlockElems()
	if st.FoldLoad {
		return st.Src.C[iter*n : (iter+1)*n]
	}
	return b.C[:n]
}

// store writes block `iter` from the lane's buffer to Dst through the
// blocked rotation and returns the bytes it moved.
//
// A run-major stage (runMajor) hands the whole block to one streaming
// gather: per block index j the block's Units μ-blocks leave as one
// contiguous run of Units·μ elements — whole lines back to back, the order a
// write-combining buffer and a DRAM page want — where the unit-major walk
// returns to each run once per unit. StoreScale rides that kernel.
//
// Otherwise each store unit's Blocks cacheline blocks leave as one run;
// affine rotations (JStride ≠ 0) send it through one register-blocked
// layout scatter kernel, irregular ones fall back to a Map call per block. A
// streaming store ends with the one fence that orders it ahead of the
// stage barrier.
//
// When StoreRadix is 4 the trailing trivial-twiddle radix-4 butterfly is
// applied on the way out: a plain complex destination gets each unit
// folded and scattered by one fused kernel (streaming or cached stores by
// NonTemporal), the buffer read four times at cache speed and nothing
// written in between; StoreScale rides that kernel too. WriteC and
// pair-packed destinations, irregular maps and builds without the kernel
// fold (and scale) into the lane's scratch first (foldRun) and scatter
// from there.
//
// Every cached store here — the cached fold-scatter, ScatterBlocks and
// ScatterBlocksPairs — runs a generated kernel on amd64 that issues
// PREFETCHW for its destination lines a few blocks ahead of the block it
// writes. The blocks of a run are 8–64 KiB apart, so each store misses and
// must first read its line for ownership; prefetched, those reads overlap
// instead of each waiting for the last. Streaming stores read nothing for
// ownership and do not prefetch.
func (st *Stage) store(b *Buffers, iter int, scratch []complex128) int {
	units, unitLen := st.storeGeometry()
	blocks, bl := st.Rot.Blocks, st.Rot.BlockLen
	stride := st.Rot.JStride
	buf := b.C
	if st.StoreFromStaging {
		buf = b.T
	}
	if st.runMajor() && st.Dst.C != nil {
		d0 := st.Rot.Map(iter*units, 0)
		layout.GatherBlocksNT(st.Dst.C[d0:d0+(blocks-1)*stride+units*bl], buf[:units*unitLen],
			blocks, units, bl, unitLen, stride, st.StoreScale)
		layout.StoreFence()
		return units * blocks * bl * complexBytes
	}
	affine := blocks == 1 || stride != 0
	for u := 0; u < units; u++ {
		g := iter*units + u
		src := buf[u*unitLen : u*unitLen+blocks*bl]
		if st.StoreRadix == 4 {
			// A declined fused attempt wrote nothing, or blocks the scratch
			// path rewrites with identical values.
			if affine && st.Dst.C != nil &&
				st.foldScatter(b.C, u*unitLen, st.Rot.Map(g, 0), stride) {
				continue
			}
			src = st.foldRun(b.C, scratch, u*unitLen)
		}
		if affine {
			st.storeRun(src, st.Rot.Map(g, 0), stride, blocks)
		} else {
			for j := 0; j < blocks; j++ {
				st.writeBlock(src[j*bl:(j+1)*bl], st.Rot.Map(g, j))
			}
		}
	}
	if st.NonTemporal {
		layout.StoreFence()
	}
	return units * blocks * bl * complexBytes
}

// foldRun computes the store unit whose buffer base is ub, applying the
// trailing radix-4 butterfly: output leg k (blocks k·Blocks/4 onwards)
// combines the unit's four input legs, read from the cache-hot buffer, one
// kernel call a leg — the call and dispatch overhead of one a μ-block would
// dominate the store leg. The result, multiplied by StoreScale when that is
// set, lands in scratch[0:Blocks·BlockLen], which is returned.
func (st *Stage) foldRun(buf, scratch []complex128, ub int) []complex128 {
	n := st.Rot.Blocks * st.Rot.BlockLen / 4 // one leg
	for leg := 0; leg < 4; leg++ {
		kernels.Radix4FoldLeg(scratch[leg*n:(leg+1)*n], buf[ub:ub+n], buf[ub+n:ub+2*n],
			buf[ub+2*n:ub+3*n], buf[ub+3*n:ub+4*n], leg, st.StoreSign)
	}
	if st.StoreScale != 0 {
		fft1d.Scale(scratch[:4*n], st.StoreScale)
	}
	return scratch[:4*n]
}

// foldScatter is foldRun fused with the affine scatter: each leg of the
// unit is folded and written straight to its strided destination blocks,
// the first at d0, by the fused kernel — the streaming one when the stage
// stores non-temporally and the pattern meets its alignment contract, the
// cached one, which prefetches its blocks for ownership, otherwise. The legs
// continue one affine progression, so the cached kernel's prefetch past the
// end of one leg warms the first blocks of the next. Returns false if the
// kernel declines (the caller then re-runs the unit through the scratch
// path).
func (st *Stage) foldScatter(buf []complex128, ub, d0, stride int) bool {
	nq, bl := st.Rot.Blocks/4, st.Rot.BlockLen
	n := nq * bl // one leg
	z0, z1, z2, z3 := buf[ub:ub+n], buf[ub+n:ub+2*n], buf[ub+2*n:ub+3*n], buf[ub+3*n:ub+4*n]
	for leg := 0; leg < 4; leg++ {
		d := d0 + leg*nq*stride
		if !(st.NonTemporal && kernels.Radix4FoldScatterNT(st.Dst.C, z0, z1, z2, z3, nq, bl, d, stride, leg, st.StoreSign, st.StoreScale)) &&
			!kernels.Radix4FoldScatter(st.Dst.C, z0, z1, z2, z3, nq, bl, d, stride, leg, st.StoreSign, st.StoreScale) {
			return false
		}
	}
	return true
}

// storeRun stores the `run` consecutive blocks in src (main or staging
// buffer, or a folded run in lane scratch) to destination offsets d0, d0+stride, …,
// through the register-blocked layout kernels (or the WriteC hook).
func (st *Stage) storeRun(src []complex128, d0, stride, run int) {
	bl := st.Rot.BlockLen
	switch {
	case st.Dst.WriteC != nil:
		st.Dst.WriteC(d0, stride, src[:run*bl])
	case st.Dst.R != nil:
		layout.ScatterBlocksPairs(st.Dst.R, src, run, bl, d0, stride)
	case st.NonTemporal:
		layout.ScatterBlocksNT(st.Dst.C, src, run, bl, d0, stride)
	default:
		layout.ScatterBlocks(st.Dst.C, src, run, bl, d0, stride)
	}
}

// writeBlock stores one block to destination offset d (irregular maps).
func (st *Stage) writeBlock(src []complex128, d int) {
	switch {
	case st.Dst.WriteC != nil:
		st.Dst.WriteC(d, 0, src)
	case st.Dst.R != nil:
		layout.UnpackPairs(st.Dst.R[2*d:], src, len(src))
	default:
		copy(st.Dst.C[d:d+len(src)], src)
	}
}

package fft1d

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
)

// Transform computes dst = DFT_n(src) out of place. dst and src must each
// have length n and must not overlap.
func (p *Plan) Transform(dst, src []complex128, sign int) {
	p.Lanes(dst, src, 1, sign)
}

// TransformArena is Transform drawing scratch from the caller's arena — the
// serving executors' path, one arena per executor goroutine.
func (p *Plan) TransformArena(dst, src []complex128, sign int, ar *kernels.Arena) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft1d: TransformArena length mismatch: dst=%d src=%d want %d",
			len(dst), len(src), p.n))
	}
	p.lanesInto(dst, src, 1, sign, ar)
}

// Execute is the checked entry point the public FFT1D handle and the serving
// layer share: Transform, or with inverse set the normalized inverse —
// Transform(dst, src, Inverse) followed by Scale(dst, 1/n), bitwise. Scratch
// comes from ar, or from the process-wide pool when ar is nil. A length
// mismatch is an error rather than a panic: the lengths arrive from callers
// outside the module.
func (p *Plan) Execute(dst, src []complex128, inverse bool, ar *kernels.Arena) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("fft1d: lengths dst=%d src=%d, want %d", len(dst), len(src), p.n)
	}
	sign := Forward
	if inverse {
		sign = Inverse
	}
	if ar != nil {
		p.TransformArena(dst, src, sign, ar)
	} else {
		p.Transform(dst, src, sign)
	}
	if inverse {
		Scale(dst, 1/float64(p.n))
	}
	return nil
}

// Lanes computes dst = (DFT_n ⊗ I_mu)(src) out of place: mu independent
// transforms interleaved at lane granularity. dst and src must each have
// length n·mu and must not overlap. This is the cacheline-vector kernel of
// the paper's blocked decompositions (mu = cacheline elements).
func (p *Plan) Lanes(dst, src []complex128, mu, sign int) {
	if mu < 1 {
		panic(fmt.Sprintf("fft1d: Lanes with mu=%d", mu))
	}
	if len(dst) != p.n*mu || len(src) != p.n*mu {
		panic(fmt.Sprintf("fft1d: Lanes length mismatch: dst=%d src=%d want %d",
			len(dst), len(src), p.n*mu))
	}
	ar := getArena()
	p.lanesInto(dst, src, mu, sign, ar)
	putArena(ar)
}

func (p *Plan) lanesInto(dst, src []complex128, mu, sign int, ar *kernels.Arena) {
	switch p.kind {
	case kindSmall:
		p.smallLanes(dst, src, mu, sign)
	case kindPow2:
		p.pow2Lanes(dst, src, mu, sign, ar)
	case kindMixed:
		p.mixedLanes(dst, src, mu, sign, ar)
	case kindBluestein:
		p.bluesteinLanes(dst, src, mu, sign, ar)
	}
}

// smallLanes applies the dense codelet across mu lanes via gather/scatter.
func (p *Plan) smallLanes(dst, src []complex128, mu, sign int) {
	if mu == 1 {
		p.small(dst, src, sign)
		return
	}
	var a, b [8]complex128
	n := p.n
	for l := 0; l < mu; l++ {
		for i := 0; i < n; i++ {
			a[i] = src[i*mu+l]
		}
		p.small(b[:n], a[:n], sign)
		for i := 0; i < n; i++ {
			dst[i*mu+l] = b[i]
		}
	}
}

// pow2Lanes runs the Stockham stage pipeline, ping-ponging between dst and
// arena scratch so the final stage always lands in dst.
func (p *Plan) pow2Lanes(dst, src []complex128, mu, sign int, ar *kernels.Arena) {
	st := p.stageTwiddles(sign)
	t := len(st)
	m := ar.Mark()
	scratch := ar.Complex(p.n * mu)

	cur := src
	n1 := p.n
	s := mu
	for i, tw := range st {
		out := dst
		if (t-1-i)%2 != 0 {
			out = scratch
		}
		switch r := p.radices[i]; r {
		case 16:
			kernels.Radix16Step(out, cur, n1/16, s, sign, tw)
		case 8:
			kernels.Radix8Step(out, cur, n1/8, s, sign, tw)
		case 4:
			kernels.Radix4Step(out, cur, n1/4, s, sign, tw)
		default:
			kernels.Radix2Step(out, cur, n1/2, s, tw)
		}
		cur = out
		n1 /= p.radices[i]
		s *= p.radices[i]
	}
	ar.Rewind(m)
}

// batchPow2 transforms `pencils` contiguous pencils of shape DFT_n ⊗ I_mu
// (stride n·mu each) from src into x through the batched Stockham stages;
// src is x for an in-place batch.
func (p *Plan) batchPow2(x, src []complex128, pencils, mu, sign int, ar *kernels.Arena) {
	p.batchPow2Stages(x, src, pencils, mu, sign, len(p.radices), ar)
}

// l1dBytes is the host's L1 data cache, against which pencilMajor sizes a
// pencil. It is a variable only so tests can force either loop order.
var l1dBytes = machine.HostL1dBytes()

// pencilMajor reports whether a batch of pencils of stride elements runs
// pencil by pencil — every stage of one pencil before the next pencil — which
// keeps a pencil in L1 between its stages, instead of stage by stage across
// the batch, which streams the whole batch through L2 once per stage. Pencil
// order paid from a quarter of the L1d up: measured on a 48 KiB-L1d host,
// 16–64 KiB pencils ran 2–9 % faster that way, while 4 and 8 KiB row
// pencils ran 5–17 % slower (EXPERIMENTS.md, "Cache-regime compute leg").
func pencilMajor(pencils, stride int) bool {
	return pencils > 1 && 4*stride*16 >= l1dBytes
}

// batchPow2Stages runs the first `t` (≥ 1) stages of the interleaved chain
// from src into x. t = len(p.radices) is the full transform; t =
// len(p.radices)-1 is the store-fold prefix, leaving the data one trailing
// radix-4 butterfly short of the answer (the stage-graph scatter leg
// supplies it). src is either x itself (in place) or an array x does not
// overlap, which only the first stage reads.
//
// The stages run over groups of pencils: the whole batch (stage-major: one
// butterfly stage is applied across every pencil before the next begins, so
// each stage's twiddle table streams through the cache once per sweep) or
// one pencil at a time (pencilMajor). Every pencil sees the same kernel
// calls either way, and from either source, so the bits depend on neither.
// Ping-pong parity lands the final stage in x; with an odd stage count an
// in-place group starts from a scratch copy so no stage reads the half it
// is writing.
func (p *Plan) batchPow2Stages(x, src []complex128, pencils, mu, sign, t int, ar *kernels.Arena) {
	st := p.stageTwiddles(sign)[:t]
	stride := p.n * mu
	group := pencils
	if pencilMajor(pencils, stride) {
		group = 1
	}
	m := ar.Mark()
	scratch := ar.Complex(group * stride)

	for c := 0; c < pencils; c += group {
		xg := x[c*stride : (c+group)*stride]
		cur := src[c*stride : (c+group)*stride]
		if t%2 == 1 && &cur[0] == &xg[0] {
			copy(scratch, xg)
			cur = scratch
		}
		n1 := p.n
		s := mu
		for i, tw := range st {
			out := xg
			if (t-1-i)%2 != 0 {
				out = scratch
			}
			switch r := p.radices[i]; r {
			case 16:
				kernels.BatchRadix16Step(out, cur, group, stride, n1/16, s, sign, tw)
			case 8:
				kernels.BatchRadix8Step(out, cur, group, stride, n1/8, s, sign, tw)
			case 4:
				kernels.BatchRadix4Step(out, cur, group, stride, n1/4, s, sign, tw)
			default:
				kernels.BatchRadix2Step(out, cur, group, stride, n1/2, s, tw)
			}
			cur = out
			n1 /= p.radices[i]
			s *= p.radices[i]
		}
	}
	ar.Rewind(m)
}

// mixedLanes implements the Cooley–Tukey factorization n = f·rest with lanes:
//
//	DFT_n ⊗ I_L = (DFT_f ⊗ I_{rest·L}) (D ⊗ I_L) (I_f ⊗ DFT_rest ⊗ I_L) (L_f^n ⊗ I_L).
func (p *Plan) mixedLanes(dst, src []complex128, mu, sign int, ar *kernels.Arena) {
	f, rest, n := p.f, p.rest, p.n
	mk := ar.Mark()
	t := ar.Complex(n * mu)

	// Step 1: blocked stride permutation (L_f^n ⊗ I_mu): input block
	// (i·f + j) → output block (j·rest + i), 0 ≤ i < rest, 0 ≤ j < f.
	// Written into dst, which serves as the intermediate here.
	for i := 0; i < rest; i++ {
		for j := 0; j < f; j++ {
			copy(dst[(j*rest+i)*mu:(j*rest+i)*mu+mu], src[(i*f+j)*mu:(i*f+j)*mu+mu])
		}
	}

	// Step 2: I_f ⊗ (DFT_rest ⊗ I_mu) from dst into t.
	blk := rest * mu
	for j := 0; j < f; j++ {
		p.subRest.lanesInto(t[j*blk:(j+1)*blk], dst[j*blk:(j+1)*blk], mu, sign, ar)
	}

	// Step 3: (D_rest^n ⊗ I_mu) in place on t.
	d := p.diagTwiddles(sign)
	for b := 0; b < f*rest; b++ {
		w := d[b]
		if w == 1 {
			continue
		}
		seg := t[b*mu : b*mu+mu]
		for q := range seg {
			seg[q] *= w
		}
	}

	// Step 4: (DFT_f ⊗ I_{rest·mu}) from t into dst.
	p.subF.lanesInto(dst, t, rest*mu, sign, ar)
	ar.Rewind(mk)
}

// bluesteinLanes applies the chirp-z transform per lane.
func (p *Plan) bluesteinLanes(dst, src []complex128, mu, sign int, ar *kernels.Arena) {
	if mu == 1 {
		p.blue.transform(dst, src, sign, ar)
		return
	}
	n := p.n
	mk := ar.Mark()
	a := ar.Complex(n)
	b := ar.Complex(n)
	for l := 0; l < mu; l++ {
		for i := 0; i < n; i++ {
			a[i] = src[i*mu+l]
		}
		p.blue.transform(b, a, sign, ar)
		for i := 0; i < n; i++ {
			dst[i*mu+l] = b[i]
		}
	}
	ar.Rewind(mk)
}

// InPlace computes x = DFT_n(x) using pooled arena scratch.
func (p *Plan) InPlace(x []complex128, sign int) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft1d: InPlace length %d, want %d", len(x), p.n))
	}
	ar := getArena()
	p.inPlaceLanes(x, 1, sign, ar)
	putArena(ar)
}

// InPlaceLanes computes x = (DFT_n ⊗ I_mu)(x) in place.
func (p *Plan) InPlaceLanes(x []complex128, mu, sign int) {
	if len(x) != p.n*mu {
		panic(fmt.Sprintf("fft1d: InPlaceLanes length %d, want %d", len(x), p.n*mu))
	}
	ar := getArena()
	p.inPlaceLanes(x, mu, sign, ar)
	putArena(ar)
}

func (p *Plan) inPlaceLanes(x []complex128, mu, sign int, ar *kernels.Arena) {
	if p.kind == kindPow2 {
		p.batchPow2(x, x, 1, mu, sign, ar)
		return
	}
	mk := ar.Mark()
	tmp := ar.Complex(p.n * mu)
	copy(tmp, x)
	p.lanesInto(x, tmp, mu, sign, ar)
	ar.Rewind(mk)
}

// Batch computes x = (I_count ⊗ DFT_n)(x): count contiguous pencils of
// length n transformed in place. This is the paper's compute-kernel shape
// I_{b/m} ⊗ DFT_m.
func (p *Plan) Batch(x []complex128, count, sign int) {
	ar := getArena()
	p.BatchArena(x, count, sign, ar)
	putArena(ar)
}

// BatchArena is Batch drawing scratch from the caller's arena. Power-of-two
// plans with ≥ 2 pencils go through the batched Stockham sweeps.
func (p *Plan) BatchArena(x []complex128, count, sign int, ar *kernels.Arena) {
	p.BatchLanesArena(x, x, count, 1, sign, ar)
}

// BatchLanesArena computes x = (I_count ⊗ DFT_n ⊗ I_mu)(src): count
// contiguous lane groups of stride n·mu each, scratch from the caller's
// arena. src is x for an in-place batch, or an array of the same length
// that x does not overlap, read by the first sweep and left unchanged —
// which is how a stage-graph compute hook reads a block straight from its
// source instead of from a loaded copy. This is the batched-unit shape of
// the stage-graph compute hooks.
func (p *Plan) BatchLanesArena(x, src []complex128, count, mu, sign int, ar *kernels.Arena) {
	if len(x) != count*p.n*mu || len(src) != len(x) {
		panic(fmt.Sprintf("fft1d: BatchLanesArena lengths x=%d src=%d, want %d·%d·%d",
			len(x), len(src), count, p.n, mu))
	}
	if count == 0 {
		return
	}
	if p.kind == kindPow2 {
		p.batchPow2(x, src, count, mu, sign, ar)
		return
	}
	stride := p.n * mu
	mk := ar.Mark()
	var tmp []complex128
	if &src[0] == &x[0] {
		tmp = ar.Complex(stride)
	}
	for c := 0; c < count; c++ {
		pencil := x[c*stride : (c+1)*stride]
		in := src[c*stride : (c+1)*stride]
		if tmp != nil {
			copy(tmp, pencil)
			in = tmp
		}
		p.lanesInto(pencil, in, mu, sign, ar)
	}
	ar.Rewind(mk)
}

// BatchLanesPrefixArena runs every Stockham stage except the trailing one
// on count contiguous lane groups from src into x (src as for
// BatchLanesArena) — the compute half of the store-folded pipeline. The
// caller must have checked FoldRadix() != 0; the data is left one radix-4
// butterfly (m = 1, trivial twiddles, stride s = n/4·mu per group) short of
// the transform, which the stage-graph scatter leg applies on the fly.
func (p *Plan) BatchLanesPrefixArena(x, src []complex128, count, mu, sign int, ar *kernels.Arena) {
	if len(x) != count*p.n*mu || len(src) != len(x) {
		panic(fmt.Sprintf("fft1d: BatchLanesPrefixArena lengths x=%d src=%d, want %d·%d·%d",
			len(x), len(src), count, p.n, mu))
	}
	if p.FoldRadix() == 0 {
		panic(fmt.Sprintf("fft1d: BatchLanesPrefixArena on a plan with no foldable stage (n=%d)", p.n))
	}
	p.batchPow2Stages(x, src, count, mu, sign, len(p.radices)-1, ar)
}

// BatchInto computes dst = (I_count ⊗ DFT_n)(src) out of place.
func (p *Plan) BatchInto(dst, src []complex128, count, sign int) {
	if len(dst) != count*p.n || len(src) != count*p.n {
		panic(fmt.Sprintf("fft1d: BatchInto lengths dst=%d src=%d, want %d·%d",
			len(dst), len(src), count, p.n))
	}
	ar := getArena()
	for c := 0; c < count; c++ {
		p.lanesInto(dst[c*p.n:(c+1)*p.n], src[c*p.n:(c+1)*p.n], 1, sign, ar)
	}
	putArena(ar)
}

// Strided transforms the pencil x[base], x[base+stride], …,
// x[base+(n-1)·stride] in place via gather/scatter. This is the
// memory-access pattern of the non-overlapped baseline implementations; it
// is deliberately cache-hostile for large strides, exactly as the paper
// describes for pencil-pencil MKL/FFTW-style stages.
func (p *Plan) Strided(x []complex128, base, stride, sign int) {
	need := base + (p.n-1)*stride + 1
	if stride < 1 || len(x) < need {
		panic(fmt.Sprintf("fft1d: Strided out of range: len=%d need=%d stride=%d",
			len(x), need, stride))
	}
	ar := getArena()
	mk := ar.Mark()
	in := ar.Complex(p.n)
	out := ar.Complex(p.n)
	for i := 0; i < p.n; i++ {
		in[i] = x[base+i*stride]
	}
	p.lanesInto(out, in, 1, sign, ar)
	for i := 0; i < p.n; i++ {
		x[base+i*stride] = out[i]
	}
	ar.Rewind(mk)
	putArena(ar)
}

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
	p.run(dst, src, 1, mu, sign, len(p.stages), ar)
	putArena(ar)
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

// run is the one driver every entry point reaches: it runs the first t
// (≥ 1) stages of the chain over `pencils` contiguous pencils of shape
// DFT_n ⊗ I_mu (stride n·mu each) from src into x. t = len(p.stages) is the
// full transform; t = len(p.stages)-1 is the store-fold prefix, leaving the
// data one trailing radix-4 butterfly short of the answer (the stage-graph
// scatter leg supplies it). src is either x itself (in place) or an array x
// does not overlap, which only the first stage reads.
//
// The stages run over groups of pencils: the whole batch (stage-major: one
// butterfly stage is applied across every pencil before the next begins, so
// each stage's twiddle table streams through the cache once per sweep) or
// one pencil at a time (pencilMajor). Every pencil sees the same kernel
// calls either way, and from either source, so the bits depend on neither.
// Ping-pong parity lands the final stage in x; with an odd stage count an
// in-place group starts from a scratch copy so no stage reads the half it
// is writing.
func (p *Plan) run(x, src []complex128, pencils, mu, sign, t int, ar *kernels.Arena) {
	tw := p.twiddles(sign)
	stride := p.n * mu
	group := pencils
	if pencilMajor(pencils, stride) {
		group = 1
	}
	mk := ar.Mark()
	var scratch []complex128
	if t > 1 || &src[0] == &x[0] {
		// A single stage out of place needs none, and taking none keeps the
		// arena's next slices (a Bluestein stage's) where they were.
		scratch = ar.Complex(group * stride)
	}

	for c := 0; c < pencils; c += group {
		xg := x[c*stride : (c+group)*stride]
		cur := src[c*stride : (c+group)*stride]
		if t%2 == 1 && &cur[0] == &xg[0] {
			copy(scratch, xg)
			cur = scratch
		}
		n1, s := p.n, mu
		for i, st := range p.stages[:t] {
			out := xg
			if (t-1-i)%2 != 0 {
				out = scratch
			}
			m := n1 / st.r
			switch {
			case st.generic():
				st.step(out, cur, group, stride, m, s, sign, tw[i].generic, ar)
			case st.r == 16:
				kernels.BatchRadix16Step(out, cur, group, stride, m, s, sign, tw[i].codelet)
			case st.r == 8:
				kernels.BatchRadix8Step(out, cur, group, stride, m, s, sign, tw[i].codelet)
			case st.r == 4:
				kernels.BatchRadix4Step(out, cur, group, stride, m, s, sign, tw[i].codelet)
			default:
				kernels.BatchRadix2Step(out, cur, group, stride, m, s, tw[i].codelet)
			}
			cur = out
			n1 = m
			s *= st.r
		}
	}
	ar.Rewind(mk)
}

// step applies a generic radix-r stage (r·m butterflies of s lanes per
// pencil) to `pencils` pencils of stride elements: butterfly (p, q) gathers
// its inputs src[s·(p+j·m)+q], transforms them, and writes output j times
// w[p·r+j] = ω_{n1}^{j·p} to dst[s·(r·p+j)+q]. At p = 0 every twiddle is 1
// and none is applied. A Bluestein stage whose butterflies are contiguous
// (m = s = 1) transforms the pencils where they lie.
func (st stage) step(dst, src []complex128, pencils, stride, m, s, sign int, w []complex128, ar *kernels.Arena) {
	r := st.r
	if st.blue != nil && m == 1 && s == 1 {
		for o := 0; o < pencils*stride; o += stride {
			st.blue.transform(dst[o:o+r], src[o:o+r], sign, ar)
		}
		return
	}
	mk := ar.Mark()
	a, b := ar.Complex(r), ar.Complex(r)
	for o := 0; o < pencils*stride; o += stride {
		x, y := src[o:o+stride], dst[o:o+stride]
		for p := 0; p < m; p++ {
			for q := 0; q < s; q++ {
				for j := range a {
					a[j] = x[s*(p+j*m)+q]
				}
				if st.small != nil {
					st.small(b, a, sign)
				} else {
					st.blue.transform(b, a, sign, ar)
				}
				for j, v := range b {
					if p > 0 {
						v *= w[p*r+j]
					}
					y[s*(r*p+j)+q] = v
				}
			}
		}
	}
	ar.Rewind(mk)
}

// InPlace computes x = DFT_n(x) using pooled arena scratch.
func (p *Plan) InPlace(x []complex128, sign int) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft1d: InPlace length %d, want %d", len(x), p.n))
	}
	p.InPlaceLanes(x, 1, sign)
}

// InPlaceLanes computes x = (DFT_n ⊗ I_mu)(x) in place.
func (p *Plan) InPlaceLanes(x []complex128, mu, sign int) {
	if len(x) != p.n*mu {
		panic(fmt.Sprintf("fft1d: InPlaceLanes length %d, want %d", len(x), p.n*mu))
	}
	ar := getArena()
	p.run(x, x, 1, mu, sign, len(p.stages), ar)
	putArena(ar)
}

// BatchArena computes x = (I_count ⊗ DFT_n)(x): count contiguous pencils of
// length n transformed in place, scratch from the caller's arena. This is
// the paper's compute-kernel shape I_{b/m} ⊗ DFT_m.
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
	p.batch("BatchLanesArena", x, src, count, mu, sign, len(p.stages), ar)
}

// BatchLanesPrefixArena runs every Stockham stage except the trailing one
// on count contiguous lane groups from src into x (src as for
// BatchLanesArena) — the compute half of the store-folded pipeline. The
// caller must have checked FoldRadix() != 0; the data is left one radix-4
// butterfly (m = 1, trivial twiddles, stride s = n/4·mu per group) short of
// the transform, which the stage-graph scatter leg applies on the fly.
func (p *Plan) BatchLanesPrefixArena(x, src []complex128, count, mu, sign int, ar *kernels.Arena) {
	if p.FoldRadix() == 0 {
		panic(fmt.Sprintf("fft1d: BatchLanesPrefixArena on a plan with no foldable stage (n=%d)", p.n))
	}
	p.batch("BatchLanesPrefixArena", x, src, count, mu, sign, len(p.stages)-1, ar)
}

func (p *Plan) batch(name string, x, src []complex128, count, mu, sign, t int, ar *kernels.Arena) {
	if len(x) != count*p.n*mu || len(src) != len(x) {
		panic(fmt.Sprintf("fft1d: %s lengths x=%d src=%d, want %d·%d·%d",
			name, len(x), len(src), count, p.n, mu))
	}
	if count > 0 {
		p.run(x, src, count, mu, sign, t, ar)
	}
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
	in := ar.Complex(p.n)
	for i := range in {
		in[i] = x[base+i*stride]
	}
	p.run(in, in, 1, 1, sign, len(p.stages), ar)
	for i, v := range in {
		x[base+i*stride] = v
	}
	putArena(ar)
}

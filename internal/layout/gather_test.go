package layout

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// lineAligned returns an n-element slice whose first element sits `off`
// elements (16 B each) past a 64-byte line boundary.
func lineAligned(n, off int) []complex128 {
	buf := make([]complex128, n+8)
	skip := (4 - int(uintptr(unsafe.Pointer(&buf[0]))/16%4)) % 4
	return buf[skip+off : skip+off+n : skip+off+n]
}

// gatherOracle is the unit-major store followed by the scale sweep: one
// ScatterBlocks per unit, then fft1d.Scale over every finished run.
func gatherOracle(dst, src []complex128, runs, units, blockLen, unitLen, dstStride int, scale float64) {
	for u := 0; u < units; u++ {
		ScatterBlocks(dst, src[u*unitLen:], runs, blockLen, u*blockLen, dstStride)
	}
	if scale != 0 {
		for r := 0; r < runs; r++ {
			fft1d.Scale(dst[r*dstStride:r*dstStride+units*blockLen], scale)
		}
	}
}

// specials are the operands whose products are not ordinary roundings:
// signed zeros, denormals, infinities, and NaNs with distinct payloads (the
// second one signalling), so a kernel that swaps the operands of a multiply
// or an add, or fuses one, shows up as a different bit pattern.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1.1e-308,
	math.Inf(1), math.Inf(-1), math.MaxFloat64,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000abc),
	math.Float64frombits(0xfff8000000000777),
}

func specialVec(r *rand.Rand, n int) []complex128 {
	pick := func() float64 {
		if r.Intn(3) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(pick(), pick())
	}
	return x
}

// GatherBlocks and GatherBlocksNT write exactly what ScatterBlocks per unit
// followed by fft1d.Scale writes — bit for bit, NaN payloads included — and
// touch nothing else, over random geometry, destination offsets on and off
// the line grid (the latter decline the streaming kernel), and scales that
// are ordinary, denormal, infinite and NaN.
func TestGatherBlocksMatchesScatterThenScale(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	scales := []float64{0, math.Copysign(0, -1), 1.0 / 4096, -3, 5e-324, 1.3e-310,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000042)}
	sentinel := complex(math.Float64frombits(0x7ff8deadbeef0001), -1)
	for trial := 0; trial < 400; trial++ {
		runs, units := 1+r.Intn(6), 1+r.Intn(9)
		blockLen := []int{1, 2, 3, 4, 8, 12, 16}[r.Intn(7)]
		unitLen := runs*blockLen + r.Intn(3)*blockLen + r.Intn(2)
		dstStride := units*blockLen + []int{0, 4, 8, 5}[r.Intn(4)]
		off := []int{0, 0, 0, 1, 2, 3}[r.Intn(6)]
		scale := scales[r.Intn(len(scales))]
		src := specialVec(r, units*unitLen)
		n := (runs-1)*dstStride + units*blockLen
		want := make([]complex128, n+4)
		for i := range want {
			want[i] = sentinel
		}
		gatherOracle(want, src, runs, units, blockLen, unitLen, dstStride, scale)
		for name, gather := range map[string]func(dst, src []complex128, runs, units, blockLen, unitLen, dstStride int, scale float64){
			"GatherBlocks": GatherBlocks, "GatherBlocksNT": GatherBlocksNT,
		} {
			got := lineAligned(n+4, off)
			for i := range got {
				got[i] = sentinel
			}
			gather(got, src, runs, units, blockLen, unitLen, dstStride, scale)
			StoreFence()
			if i := cvec.FirstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s runs=%d units=%d μ=%d unitLen=%d stride=%d off=%d scale=%v: element %d = %v (%#x, %#x), want %v (%#x, %#x)",
					name, runs, units, blockLen, unitLen, dstStride, off, scale, i, got[i],
					math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])), want[i],
					math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
			}
		}
	}
}

// Out-of-bounds patterns panic through the fallback like the scatters do,
// never write wild memory.
func TestGatherBlocksNTOutOfBoundsPanics(t *testing.T) {
	for name, c := range map[string]struct{ dst, src int }{
		"dst short": {8*4*3 - 1, 4 * 64},
		"src short": {8 * 4 * 3, 3*64 + 3*8 - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			GatherBlocksNT(lineAligned(c.dst, 0), make([]complex128, c.src), 3, 4, 8, 64, 32, 0)
		}()
	}
}

func BenchmarkGatherBlocksNT(b *testing.B) {
	// One stage-0 store of 256³: 64 units of 256, 32 runs of 8 KiB.
	const runs, units, blockLen, unitLen = 32, 64, 8, 256
	src := make([]complex128, units*unitLen)
	dst := lineAligned(runs*units*blockLen, 0)
	for _, scale := range []float64{0, 1.0 / (1 << 24)} {
		name := "plain"
		if scale != 0 {
			name = "scaled"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src) * 32))
			for i := 0; i < b.N; i++ {
				GatherBlocksNT(dst, src, runs, units, blockLen, unitLen, units*blockLen, scale)
			}
			StoreFence()
		})
	}
}

//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
)

// lineVec returns n elements whose first starts a 64-byte line.
func lineVec(n int) []complex128 {
	raw := make([]complex128, n+4)
	for a := range 4 {
		if addr(raw[a:])%64 == 0 {
			return raw[a : a+n]
		}
	}
	panic("no line-aligned start")
}

// sinkShapes are the (s, μ) last passes a sink takes: strided, s a multiple
// of μ (256³'s x-pencils are s = 16 and its y/z-pencils s = 128 at μ = 8),
// and pairs, s = 1 with μ dividing the radix.
func sinkShapes(radix int) [][2]int {
	sh := [][2]int{{4, 4}, {8, 4}, {8, 8}, {16, 8}, {12, 4}, {128, 8}, {1, 4}, {1, 8}}
	if radix == 16 {
		sh = append(sh, [2]int{1, 16})
	}
	return sh
}

// sentinel marks destination elements no store should touch.
var sentinel = complex(math.Float64frombits(0x7ff8dead0000beef), -1)

// Every sink codelet — radix 8 and 16, 256- and 512-bit, strided and pairs,
// with and without a scale — writes what the buffered codelet followed by
// layout.GatherBlocksNT writes, bit for bit, NaN and infinity inputs
// included, and nothing else of the destination; the cursor moves as the
// buffered codelet's does.
func TestSinkStepMatchesGather(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2/FMA codelet tier on this host")
	}
	defer func(w bool) { useAVX512 = w }(useAVX512)
	widths := []bool{false}
	if hostAVX512 {
		widths = append(widths, true)
	}
	rng := rand.New(rand.NewSource(49))
	region := make([]complex128, 1<<14)
	for _, radix := range []int{8, 16} {
		for _, wide := range widths {
			useAVX512 = wide
			for _, sh := range sinkShapes(radix) {
				s, mu := sh[0], sh[1]
				for _, scale := range []float64{0, 1.0 / 3} {
					for _, sign := range []int{Forward, Inverse} {
						name := fmt.Sprintf("r%d/avx512=%v/s%d/mu%d/scale=%v/sign=%d", radix, wide, s, mu, scale, sign)
						const pencils = 3
						stride := radix * s
						src := randComplex(rng, pencils*stride)
						src[5] = complex(math.Inf(1), 2)
						src[stride+7] = complex(math.Float64frombits(0x7ff8000000000123), 0)
						tw := NewStageTwiddles(radix, radix, sign)
						// A stage of 2·pencils units whose block is its second half:
						// block j of unit g lands at (j·G + g)·μ.
						G, blocks := 2*pencils, stride/mu
						sk := Sink{Off: pencils * mu, Pitch: mu, JStride: G * mu, BlockLen: mu, Scale: scale}
						want, got := lineVec(G*stride), lineVec(G*stride)
						for i := range want {
							want[i], got[i] = sentinel, sentinel
						}
						buf := make([]complex128, len(src))
						pfWant := NewPrefetch(region, 64)
						BatchStep(radix, buf, src, pencils, stride, 1, s, sign, tw, &pfWant)
						layout.GatherBlocksNT(want[sk.Off:sk.Off+(blocks-1)*sk.JStride+pencils*mu], buf,
							blocks, pencils, mu, stride, sk.JStride, scale)
						sk.Dst = got
						pf := NewPrefetch(region, 64)
						if !SinkStep(radix, src, pencils, stride, 1, s, sign, &tw, &pf, &sk) {
							t.Fatalf("%s: SinkStep declined", name)
						}
						if i := firstBitDiff(got, want); i >= 0 {
							t.Errorf("%s: element %d = %v, want %v", name, i, got[i], want[i])
						}
						if pf.next != pfWant.next {
							t.Errorf("%s: cursor moved %d B, the buffered codelet %d B", name, pf.next-addr(region), pfWant.next-addr(region))
						}
					}
				}
			}
		}
	}
}

// A sink refuses, writing nothing, a destination off the line grid, one too
// short for the batch's last block, blocks that are not whole lines, a shape
// it has no codelet for and a buffered stage (m > 1).
func TestSinkStepRefuses(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2/FMA codelet tier on this host")
	}
	const radix, s, pencils, mu = 16, 8, 2, 4
	stride := radix * s
	src := randComplex(rand.New(rand.NewSource(3)), pencils*stride)
	tw := NewStageTwiddles(radix, radix, Forward)
	full := lineVec(2*pencils*stride + 4)
	// The batch is the second half of a stage's units, so its last block ends
	// the destination.
	ok := Sink{Dst: full[:2*pencils*stride], Off: pencils * mu, Pitch: mu, JStride: 2 * pencils * mu, BlockLen: mu}
	if !ok.Fits(radix, 1, s, pencils) {
		t.Fatal("the in-bounds, line-aligned sink does not fit")
	}
	for _, c := range []struct {
		name    string
		sk      Sink
		r, m, s int
	}{
		{"dst one element off the line grid", Sink{Dst: full[1 : 1+len(ok.Dst)], Off: ok.Off, Pitch: mu, JStride: ok.JStride, BlockLen: mu}, radix, 1, s},
		{"offset off the line grid", Sink{Dst: full, Off: 2, Pitch: mu, JStride: ok.JStride, BlockLen: mu}, radix, 1, s},
		{"dst one element short", Sink{Dst: ok.Dst[:len(ok.Dst)-1], Off: ok.Off, Pitch: mu, JStride: ok.JStride, BlockLen: mu}, radix, 1, s},
		{"offset past the end", Sink{Dst: ok.Dst, Off: ok.Off + mu, Pitch: mu, JStride: ok.JStride, BlockLen: mu}, radix, 1, s},
		{"half-line blocks", Sink{Dst: ok.Dst, Pitch: 2, JStride: ok.JStride, BlockLen: 2}, radix, 1, s},
		{"stride not whole lines", Sink{Dst: ok.Dst, Pitch: mu, JStride: ok.JStride + 2, BlockLen: mu}, radix, 1, s},
		{"s not a multiple of μ", Sink{Dst: full, Pitch: 8, JStride: 16, BlockLen: 8}, radix, 1, 12},
		{"radix 4", ok, 4, 1, s},
		{"m > 1", ok, radix, 2, s / 2},
	} {
		dst := c.sk.Dst
		for i := range dst {
			dst[i] = sentinel
		}
		pf := Prefetch{}
		if SinkStep(c.r, src, pencils, c.r*c.m*c.s, c.m, c.s, Forward, &tw, &pf, &c.sk) {
			t.Errorf("%s: SinkStep took it", c.name)
		}
		for i := range dst {
			if !sameBits(dst[i], sentinel) {
				t.Errorf("%s: element %d written", c.name, i)
				break
			}
		}
	}
}

//go:build amd64 && !purego

package kernels

import (
	"math/rand"
	"testing"
	"unsafe"
)

// cursorShapes are (m, s) stage shapes a codelet of the given width takes:
// pairs (s == 1) and strided, with the odd tails at 256 bits; the 512-bit
// codelets take whole ZMM words only.
func cursorShapes(width int) [][2]int {
	if width == 512 {
		return [][2]int{{4, 1}, {8, 1}, {1, 4}, {3, 8}, {2, 12}}
	}
	return [][2]int{{1, 1}, {3, 1}, {4, 1}, {5, 1}, {1, 2}, {3, 3}, {2, 5}, {4, 4}, {7, 6}}
}

// bodiesAt is the butterfly bodies a width-bit codelet runs on an (m, s)
// stage: width/128 q elements (or butterflies, when s == 1) a body, one in
// the 256-bit odd tail.
func bodiesAt(width, m, s int) int {
	per := width / 128
	if s == 1 {
		return m/per + m%per
	}
	return m * (s/per + s%per)
}

func addr(x []complex128) uintptr { return uintptr(unsafe.Pointer(&x[0])) }

// Every radix-4/8/16 codelet, strided and pairs, at both widths, writes the
// same bits with a prefetch cursor as without, and leaves the cursor at
// min(end, start + bodies·step): never past end, and an empty cursor where it
// was.
func TestCodeletsAdvancePrefetchCursor(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2/FMA codelet tier on this host")
	}
	widths := []int{256}
	if hostAVX512 {
		widths = append(widths, 512)
	}
	region := make([]complex128, 1<<12) // what the cursors walk: 64 KiB
	rng := rand.New(rand.NewSource(48))
	for _, radix := range []int{4, 8, 16} {
		for _, width := range widths {
			if radix == 4 && width == 512 {
				continue
			}
			for _, sh := range cursorShapes(width) {
				m, s := sh[0], sh[1]
				bodies := bodiesAt(width, m, s)
				for _, sign := range []int{Forward, Inverse} {
					n := radix * m * s
					src := randComplex(rng, n)
					tw := NewStageTwiddles(radix*m, radix, sign)
					want := make([]complex128, n)
					asmStep(radix, width, want, src, m, s, sign, tw, nil)
					for _, c := range []struct{ elems, step int }{
						{len(region), 64},        // longer than the call asks for
						{len(region), 4 * 64},    // several lines a body
						{4*bodies - 1, 64},       // ends mid-call, mid-line
						{len(region), 3*64 + 16}, // a step of no whole lines
						{0, 64},                  // empty
					} {
						pf := NewPrefetch(region[:c.elems], c.step)
						start, end := pf.next, pf.end
						got := make([]complex128, n)
						asmStep(radix, width, got, src, m, s, sign, tw, &pf)
						if i := firstBitDiff(got, want); i >= 0 {
							t.Errorf("radix-%d/%d m=%d s=%d: element %d differs with a cursor", radix, width, m, s, i)
						}
						wantNext := min(end, start+uintptr(bodies*c.step))
						if c.elems == 0 {
							wantNext = 0
						}
						if pf.next != wantNext || pf.next > end {
							t.Errorf("radix-%d/%d m=%d s=%d step=%d over %d B: cursor moved %d B, want %d (end at %d)",
								radix, width, m, s, c.step, c.elems*16, pf.next-start, wantNext-start, end-start)
						}
					}
				}
			}
		}
	}
}

// A batch hands one cursor from pencil to pencil, and Bodies counts what the
// dispatched codelets advance it by.
func TestBatchStepAdvancesCursorByBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2/FMA codelet tier on this host")
	}
	region := make([]complex128, 1<<16)
	rng := rand.New(rand.NewSource(7))
	for _, radix := range []int{4, 8, 16} {
		for _, sh := range [][2]int{{8, 1}, {3, 1}, {2, 4}, {5, 3}, {4, 8}} {
			m, s, pencils := sh[0], sh[1], 3
			stride := radix * m * s
			src := randComplex(rng, pencils*stride)
			tw := NewStageTwiddles(radix*m, radix, Forward)
			want, got := make([]complex128, len(src)), make([]complex128, len(src))
			BatchStep(radix, want, src, pencils, stride, m, s, Forward, tw, nil)
			pf := NewPrefetch(region, 64)
			BatchStep(radix, got, src, pencils, stride, m, s, Forward, tw, &pf)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("radix-%d m=%d s=%d: element %d differs with a cursor", radix, m, s, i)
			}
			if moved, want := int(pf.next-addr(region)), 64*pencils*Bodies(radix, m, s); moved != want {
				t.Errorf("radix-%d m=%d s=%d: cursor moved %d B over %d pencils, Bodies says %d", radix, m, s, moved, pencils, want)
			}
		}
	}
}

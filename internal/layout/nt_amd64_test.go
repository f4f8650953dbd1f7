//go:build amd64 && !purego

package layout

import "testing"

// The streaming tier is whole-line only: a block pattern passes ntOK
// exactly when every block is a whole number of 64-byte lines starting on
// a line boundary; everything else runs the cached scatter.
func TestNTOKWholeLinesOnly(t *testing.T) {
	const base = 0x10000 // line-aligned
	for _, c := range []struct {
		name                  string
		base                  uintptr
		blockLen, off, stride int
		want                  bool
	}{
		{"complex μ=4, one line per block", base, 4, 0, 1024, true},
		{"complex μ=8, two lines per block", base, 8, 64, 2048, true},
		{"complex μ=2: half-line blocks", base, 2, 0, 1024, false},
		{"whole-line block, mid-line offset", base, 4, 2, 1024, false},
		{"whole-line block, mid-line base", base + 32, 4, 0, 1024, false},
		{"stride off the line grid", base, 4, 0, 1026, false},
		{"block and a half", base, 6, 0, 1024, false},
	} {
		if got := ntOK(c.base, c.blockLen, c.off, c.stride); got != c.want {
			t.Errorf("%s: ntOK = %v, want %v", c.name, got, c.want)
		}
	}
}

// The streaming gather declines, having written nothing, whenever a run
// would not be whole lines on line boundaries — so the fallback that follows
// writes every element once — and accepts the stage-shaped pattern.
func TestGatherNTDeclinesWithoutWriting(t *testing.T) {
	if !NonTemporalAvailable() {
		t.Skip("no streaming tier on this host")
	}
	const runs, units, unitLen = 4, 3, 64
	src := make([]complex128, units*unitLen)
	for _, c := range []struct {
		name                     string
		blockLen, dstStride, off int
		want                     bool
	}{
		{"whole lines on the grid", 8, 32, 0, true},
		{"mid-line destination", 8, 32, 1, false},
		{"half-line blocks", 2, 32, 0, false},
		{"stride off the line grid", 8, 26, 0, false},
	} {
		dst := lineAligned((runs-1)*c.dstStride+units*c.blockLen, c.off)
		for i := range dst {
			dst[i] = complex(7, 7)
		}
		got := gatherNT(dst, src, runs, units, c.blockLen, unitLen, c.dstStride, 0.5)
		if got != c.want {
			t.Errorf("%s: gatherNT = %v, want %v", c.name, got, c.want)
		}
		if !got {
			for i, v := range dst {
				if v != complex(7, 7) {
					t.Fatalf("%s: declined but wrote element %d", c.name, i)
				}
			}
		}
	}
}

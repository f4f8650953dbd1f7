package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/spl"
)

// oracle is the DFT over row-major extents dims (slowest first) by the SPL
// formula semantics: one I ⊗ DFT_d ⊗ I factor per axis, the fastest applied
// first as in spl.DFT3D, and IDFT factors for the inverse.
func oracle(x []complex128, sign int, dims ...int) []complex128 {
	dft := spl.DFT
	if sign == fft1d.Inverse {
		dft = spl.IDFT
	}
	var fs []spl.Formula
	outer := 1
	for _, d := range dims {
		fs = append([]spl.Formula{spl.KronAll(spl.I(outer), dft(d), spl.I(len(x)/outer/d))}, fs...)
		outer *= d
	}
	return spl.Eval(spl.Compose(fs...), x)
}

// Every baseline matches the oracle in both directions on odd and non-cubic
// shapes, across pool sizes 1–4 — including pools larger than an axis.
func TestBaselinesMatchSPL(t *testing.T) {
	pencil2D := func(x []complex128, d []int, sign, w int) { Pencil2D(x, d[0], d[1], sign, w) }
	pencil3D := func(x []complex128, d []int, sign, w int) { Pencil3D(x, d[0], d[1], d[2], sign, w) }
	slab3D := func(x []complex128, d []int, sign, w int) { Slab3D(x, d[0], d[1], d[2], sign, w) }
	for _, c := range []struct {
		name    string
		run     func(x []complex128, dims []int, sign, workers int)
		dims    []int
		workers int
	}{
		{"pencil2d", pencil2D, []int{8, 8}, 1},
		{"pencil2d", pencil2D, []int{16, 32}, 2},
		{"pencil2d", pencil2D, []int{32, 16}, 4},
		{"pencil2d", pencil2D, []int{5, 12}, 3},
		{"pencil2d", pencil2D, []int{3, 2}, 4},
		{"pencil2d", pencil2D, []int{128, 256}, 3},
		{"pencil3d", pencil3D, []int{4, 4, 4}, 1},
		{"pencil3d", pencil3D, []int{8, 8, 8}, 3},
		{"pencil3d", pencil3D, []int{2, 8, 16}, 2},
		{"pencil3d", pencil3D, []int{5, 3, 6}, 4},
		{"slab3d", slab3D, []int{4, 8, 8}, 1},
		{"slab3d", slab3D, []int{8, 4, 16}, 3},
		{"slab3d", slab3D, []int{2, 16, 8}, 2},
		{"slab3d", slab3D, []int{3, 5, 7}, 4},
	} {
		shape := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(c.dims)), "x"), "[]")
		for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
			dir := map[int]string{fft1d.Forward: "forward", fft1d.Inverse: "inverse"}[sign]
			t.Run(fmt.Sprintf("%s/%s/w%d/%s", c.name, shape, c.workers, dir), func(t *testing.T) {
				elems := 1
				for _, d := range c.dims {
					elems *= d
				}
				x := cvec.Random(rand.New(rand.NewSource(int64(elems+sign))), elems)
				want := oracle(x, sign, c.dims...)
				got := append([]complex128(nil), x...)
				c.run(got, c.dims, sign, c.workers)
				if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-9*float64(elems) {
					t.Errorf("diff %g", d)
				}
			})
		}
	}
}

// The Measured sweeps close every plan they build: with the collector off,
// no finalizer releases a forgotten plan's parked workers, so the goroutine
// count must come back to where it started.
func TestMeasuredClosesItsPlans(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := runtime.NumGoroutine()
	cfg := MeasuredConfig{
		Sizes3D: [][3]int{{16, 16, 16}, {32, 16, 16}},
		Sizes2D: [][2]int{{32, 32}, {64, 32}},
		Reps:    1, HostBWGBs: 10,
	}
	if err := Measured3D(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Measured2D(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after the sweeps, %d before", n, start)
	}
}

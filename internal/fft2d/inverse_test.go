package fft2d

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// Inverse is, bitwise, Transform(…, fft1d.Inverse) followed by
// fft1d.Scale(dst, 1/(n·m)) — whether the scale ran on the way out of the
// column stage's fold or run-major store or in its compute leg (a plain
// unit-major store).
func TestInverseBitwiseEqualsTransformThenScale(t *testing.T) {
	shapes := []struct {
		n, m int
		fold bool // the column stage folds (fold on): the scale rides its store
	}{
		{64, 64, true},
		{32, 128, true},
		{64, 96, true},  // M not a power of two: no pass over dst either
		{96, 64, true},  // n=96 runs [3 8 4], whose trailing radix-4 folds
		{20, 12, true},  // n=20 runs [5 4]
		{24, 12, false}, // columns do not fold (n=24 runs [3 8]): scale after the full DFT_n
	}
	dbuf := core.Config{}
	variants := []struct {
		name string
		o    core.Config
		ab   stagegraph.Ablation
	}{
		{"default", dbuf, stagegraph.Ablation{}},
		{"unfused", dbuf, stagegraph.Ablation{Unfused: true}},
		{"nofold", dbuf, stagegraph.Ablation{NoFold: true}},
		{"mu4/radix8", core.Config{Mu: 4}, stagegraph.Ablation{Radix: 8}},
		{"streaming", dbuf, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}},
		{"workers2x2", core.Config{DataWorkers: 2, ComputeWorkers: 2}, stagegraph.Ablation{}},
	}
	for _, sh := range shapes {
		for _, v := range variants {
			o := v.o
			o.BufferElems = 1 << 9
			t.Run(fmt.Sprintf("%dx%d/%s", sh.n, sh.m, v.name), func(t *testing.T) {
				restore := stagegraph.SetAblation(v.ab)
				p, err := NewPlan(sh.n, sh.m, o)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				inStore := p.ScalesInStore()
				switch v.name {
				case "default":
					if inStore != sh.fold {
						t.Errorf("scale in store = %v, want %v", inStore, sh.fold)
					}
				case "streaming":
					if want := sh.fold || layout.NonTemporalAvailable(); inStore != want {
						t.Errorf("scale in the store leg = %v, want %v", inStore, want)
					}
				case "nofold":
					if inStore {
						t.Error("an unfolded cached last stage always scales in stage")
					}
				}
				x := randVec(int64(sh.n*sh.m), sh.n*sh.m)
				want := make([]complex128, len(x))
				if err := p.Transform(want, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(want, 1/float64(len(x)))
				got := make([]complex128, len(x))
				if err := p.Inverse(got, x); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, got, want)
				// The scale is per call: an unnormalized transform right
				// after must not inherit it.
				if err := p.Transform(got, x, fft1d.Inverse); err != nil {
					t.Fatal(err)
				}
				fft1d.Scale(got, 1/float64(len(x)))
				requireSameBits(t, got, want)
			})
		}
	}
}

func requireSameBits(t *testing.T, got, want []complex128) {
	t.Helper()
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Fatalf("element %d: got %v, want %v (bitwise)", i, got[i], want[i])
	}
}

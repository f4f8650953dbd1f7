package stagegraph

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestRealEndpoints runs a one-stage graph whose source and destination are
// pair-packed real arrays: the load fuses the pack, the compute doubles the
// packed lanes, and the store fuses the unpack through a blocked transpose.
func TestRealEndpoints(t *testing.T) {
	const iters, units, unitLen, mu = 2, 3, 8, 4
	elems := iters * units * unitLen
	src := make([]float64, 2*elems)
	for i := range src {
		src[i] = float64(i + 1)
	}
	dst := make([]float64, 2*elems)
	blocks := unitLen / mu
	st := Stage{
		Name: "r2r", Iters: iters, Units: units, UnitLen: unitLen,
		Src: Endpoint{R: src}, Dst: Endpoint{R: dst},
		Compute: func(b *Buffers, _ *kernels.Arena, src []complex128, _ int) {
			for j := range src {
				b.C[j] *= 2
			}
		},
		// Blocked transpose of the (iters·units)×blocks block matrix.
		Rot: Rotation{Blocks: blocks, BlockLen: mu, JStride: iters * units * mu,
			Map: func(g, j int) int { return (j*iters*units + g) * mu }},
	}
	col := obs.NewCollector(2, []string{"r2r"}, 0)
	if err := runOnce(2, col, []Stage{st}, nil); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < iters*units; g++ {
		for j := 0; j < blocks; j++ {
			for v := 0; v < mu; v++ {
				s := (g*blocks+j)*mu + v
				d := (j*iters*units+g)*mu + v
				if dst[2*d] != 2*src[2*s] || dst[2*d+1] != 2*src[2*s+1] {
					t.Fatalf("block (%d,%d) lane %d: got (%v,%v) want doubled (%v,%v)",
						g, j, v, dst[2*d], dst[2*d+1], src[2*s], src[2*s+1])
				}
			}
		}
	}
	// Real loads and stores account 16 B per packed element = 8 B per real
	// element, exactly.
	snap := col.Snapshot()
	wantBytes := uint64(len(src)) * 8
	if snap.Stages[0].Load.Bytes != wantBytes || snap.Stages[0].Store.Bytes != wantBytes {
		t.Fatalf("load/store bytes = %d/%d, want %d (8 B per real element)",
			snap.Stages[0].Load.Bytes, snap.Stages[0].Store.Bytes, wantBytes)
	}
}

// TestSetObsSwitchesCollector verifies per-direction accounting swaps: each
// run records into the collector it is handed.
func TestSetObsSwitchesCollector(t *testing.T) {
	const elems = 32
	src := make([]complex128, elems)
	dst := make([]complex128, elems)
	st := Stage{
		Name: "id", Iters: 1, Units: 1, UnitLen: elems,
		Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int) {},
		Rot:     Rotation{Blocks: 1, BlockLen: elems, Map: func(g, _ int) int { return 0 }},
	}
	stages := []Stage{st}
	colA := obs.NewCollector(1, []string{"id"}, 0)
	colB := obs.NewCollector(1, []string{"id"}, 0)
	e, err := NewExecutor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(stages, colA, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stages, colB, nil); err != nil {
		t.Fatal(err)
	}
	if a, bn := colA.Snapshot(), colB.Snapshot(); a.Runs != 1 || bn.Runs != 1 ||
		a.Stages[0].Load.Bytes != elems*16 || bn.Stages[0].Load.Bytes != elems*16 {
		t.Fatalf("collector swap mis-attributed runs: A=%d/%dB B=%d/%dB",
			a.Runs, a.Stages[0].Load.Bytes, bn.Runs, bn.Stages[0].Load.Bytes)
	}
}

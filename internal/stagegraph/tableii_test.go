package stagegraph

import (
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
	"repro/internal/trace"
)

// A one-stage graph on the executor is the paper's Table II schedule: the
// single-stage engine these tests were written against is gone, the
// schedule it verified is not.

func TestTableIISchedule(t *testing.T) {
	// The recorded events must match the paper's Table II exactly, fused or
	// not (one stage has no boundary to fuse).
	for _, iters := range []int{1, 2, 3, 4, 9} {
		for _, fused := range []bool{true, false} {
			tr := trace.New()
			runChain(t, 1, iters, fused, tr)
			if err := tr.CheckTableII(iters); err != nil {
				t.Fatalf("iters=%d fused=%v: %v", iters, fused, err)
			}
			if err := tr.CheckStageGraph([]int{iters}, fused); err != nil {
				t.Fatalf("iters=%d fused=%v: %v", iters, fused, err)
			}
		}
	}
}

func TestPrologueSteadyEpilogueShape(t *testing.T) {
	const iters = 6
	tr := trace.New()
	runChain(t, 1, iters, true, tr)
	byStep := tr.ByStep()

	// Prologue: step 0 loads only.
	if ops := trace.OpsInStep(byStep[0]); len(ops) != 1 || ops[0] != trace.Load {
		t.Fatalf("step 0 ops = %v, want [load]", ops)
	}
	// Step 1: load + compute, no store.
	if ops := trace.OpsInStep(byStep[1]); len(ops) != 2 || ops[0] != trace.Load || ops[1] != trace.Compute {
		t.Fatalf("step 1 ops = %v, want [load compute]", ops)
	}
	// Steady state: all three ops.
	for s := 2; s < iters; s++ {
		if ops := trace.OpsInStep(byStep[s]); len(ops) != 3 {
			t.Fatalf("step %d ops = %v, want [load compute store]", s, ops)
		}
	}
	// Epilogue: step iters has compute+store, step iters+1 store only.
	if ops := trace.OpsInStep(byStep[iters]); len(ops) != 2 || ops[0] != trace.Compute || ops[1] != trace.Store {
		t.Fatalf("step %d ops = %v, want [compute store]", iters, ops)
	}
	if ops := trace.OpsInStep(byStep[iters+1]); len(ops) != 1 || ops[0] != trace.Store {
		t.Fatalf("step %d ops = %v, want [store]", iters+1, ops)
	}
}

func TestStoreLoadOrderingOnSharedHalf(t *testing.T) {
	// The load of iteration s must not begin on a half before the store of
	// iteration s-2 has drained it, even across different data workers:
	// every block the store hook receives must still carry its own
	// iteration's sentinel, which a too-early load would have overwritten.
	const iters, b = 12, 64
	src := make([]complex128, iters*b)
	for i := range src {
		src[i] = complex(float64(i/b), 0)
	}
	var violations atomic.Int64
	stages := []Stage{{
		Name: "sentinel", Iters: iters, Units: 1, UnitLen: b,
		Src:     Endpoint{C: src},
		Compute: func(*Buffers, *kernels.Arena, int, int, int, int) {},
		Dst: Endpoint{WriteC: func(off int, blk []complex128) {
			for _, v := range blk {
				if v != complex(float64(off/b), 0) {
					violations.Add(1)
				}
			}
		}},
		// One-element blocks so the three data workers share every store.
		Rot: Rotation{Blocks: b, BlockLen: 1, JStride: 1, Map: func(g, j int) int { return g*b + j }},
	}}
	if _, err := Run(Config{DataWorkers: 3, ComputeWorkers: 2, Fused: true}, NewBuffers(b, false), stages); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d store/load ordering violations", v)
	}
}

package stagegraph

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
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
		Compute: func(*Buffers, *kernels.Arena, []complex128, int, int, int, int) {},
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
	if err := runOnce(Config{DataWorkers: 3, ComputeWorkers: 2}, NewBuffers(b, false), stages, true, nil); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d store/load ordering violations", v)
	}
}

// With a sleeping compute hook and a sleeping store hook, the executor must
// take roughly max(data, compute) per steady step rather than their sum.
// Sleeps overlap even on a single-core machine, so this is a scheduling
// test, not a throughput test.
func TestOverlapHidesDataMovement(t *testing.T) {
	const iters, b = 8, 16
	const d = 4 * time.Millisecond
	tr := trace.New()
	stages := []Stage{{
		Name: "sleepy", Iters: iters, Units: 1, UnitLen: b,
		Src:     Endpoint{C: make([]complex128, iters*b)},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int, int, int, int) { time.Sleep(2 * d) },
		Dst:     Endpoint{WriteC: func(int, []complex128) { time.Sleep(d) }},
		Rot:     Rotation{Blocks: 1, BlockLen: b, Map: func(g, _ int) int { return g * b }},
	}}
	col := obs.NewCollector(1, 1, []string{"sleepy"})
	if err := runOnce(Config{DataWorkers: 1, ComputeWorkers: 1, Obs: col}, NewBuffers(b, false), stages, true, tr); err != nil {
		t.Fatal(err)
	}
	// Back to back the legs cost iters·(d + 2d) = 24d; pipelined ≈
	// (iters+2)·2d = 20d with the store hidden under the compute. Require
	// a conservative margin to stay robust under CI noise.
	s := col.Snapshot()
	legs := s.Stages[0].Load.Ns + s.Stages[0].Store.Ns + s.Stages[0].ComputeNs
	if serial, wall := time.Duration(legs), time.Duration(s.WallNs); float64(serial) < 1.1*float64(wall) {
		t.Fatalf("pipelining hid no data movement: wall %v vs legs back to back %v", wall, serial)
	}
	if f := tr.OverlapFraction(); f < 0.5 {
		t.Fatalf("overlap fraction %v, want ≥ 0.5 (most data movement hidden)", f)
	}
}

// oneStage scales n = iters·b elements by 2 through a one-stage graph and
// reports whether every element arrived exactly once.
func oneStage(cfg Config, iters, b int) bool {
	src := make([]complex128, iters*b)
	for i := range src {
		src[i] = complex(float64(i), 1)
	}
	dst := make([]complex128, iters*b)
	stages := chainGraph(src, nil, dst, iters, 1, b, 2)
	if err := runOnce(cfg, NewBuffers(b, false), stages, true, nil); err != nil {
		return false
	}
	for i := range dst {
		if dst[i] != 2*src[i] {
			return false
		}
	}
	return true
}

// Property: for any iteration count and worker mix, the pipeline moves and
// transforms every element exactly once.
func TestQuickPipelineCompleteness(t *testing.T) {
	f := func(rawIters, rawPd, rawPc uint8) bool {
		return oneStage(Config{DataWorkers: int(rawPd)%3 + 1, ComputeWorkers: int(rawPc)%3 + 1},
			int(rawIters)%12+1, 48)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package stagegraph

import (
	"strings"
	"testing"

	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// scaleStage builds a one-stage graph multiplying src by scale into dst.
func scaleStage(dst, src []complex128, iters, units, unitLen int, scale complex128) []Stage {
	ul := unitLen
	return []Stage{{
		Name: "scale", Iters: iters, Units: units, UnitLen: unitLen,
		Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
		Compute: func(b *Buffers, _ *kernels.Arena, src []complex128, _ int) {
			for j := range src {
				b.C[j] = src[j] * scale
			}
		},
		Rot: Rotation{Blocks: 1, BlockLen: unitLen, Map: func(g, _ int) int { return g * ul }},
	}}
}

func TestExecutorReuseAcrossRuns(t *testing.T) {
	const iters, units, unitLen = 3, 2, 8
	n := iters * units * unitLen
	col := obs.NewCollector(2, []string{"scale"}, 0)
	e, err := NewExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i+1), float64(i%3))
	}
	stages := scaleStage(dst, src, iters, units, unitLen, 2)

	for run := 0; run < 5; run++ {
		for i := range dst {
			dst[i] = 0
		}
		before := col.Snapshot().Steps
		if err := e.Run(stages, col, nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if steps := col.Snapshot().Steps - before; steps != iters {
			t.Fatalf("run %d: %d blocks, want %d", run, steps, iters)
		}
		for i := range dst {
			if dst[i] != 2*src[i] {
				t.Fatalf("run %d elem %d: got %v want %v", run, i, dst[i], 2*src[i])
			}
		}
	}
}

// One executor runs graphs of any block size: its lanes' buffers grow to a
// larger graph's blocks, and a smaller one runs through them as they are.
func TestScheduleShapeChecked(t *testing.T) {
	e, err := NewExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, unitLen := range []int{8, 64, 16} {
		const iters, units = 4, 3
		n := iters * units * unitLen
		src, dst := make([]complex128, n), make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i), 1)
		}
		if err := e.Run(scaleStage(dst, src, iters, units, unitLen, 3), nil, nil); err != nil {
			t.Fatalf("unit length %d: %v", unitLen, err)
		}
		for i := range dst {
			if dst[i] != 3*src[i] {
				t.Fatalf("unit length %d elem %d: got %v want %v", unitLen, i, dst[i], 3*src[i])
			}
		}
	}
}

func TestExecutorBrokenAfterPanic(t *testing.T) {
	const iters, units, unitLen = 2, 1, 8
	n := iters * units * unitLen
	e, err := NewExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stages := scaleStage(make([]complex128, n), make([]complex128, n), iters, units, unitLen, 2)
	stages[0].Compute = func(*Buffers, *kernels.Arena, []complex128, int) { panic("kernel exploded") }

	if err := e.Run(stages, nil, nil); err == nil {
		t.Fatal("panic in compute not surfaced")
	}
	// The stage barrier is poisoned: subsequent runs must fail fast
	// instead of deadlocking.
	if err := e.Run(stages, nil, nil); err == nil {
		t.Fatal("broken executor accepted another run")
	}

	// A plan's run on a leased team: the panic breaks the runner, whose
	// later runs fail fast, and the engine closes the team instead of
	// pooling it.
	r, err := NewRunner(RunnerConfig{Pkg: "test", Lanes: 2}, &Graph{stages: stages, dir: &direction{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(0, Call{Sign: fft1d.Forward}); err == nil {
		t.Fatal("panic in a runner's compute not surfaced")
	}
	if err := r.Run(0, Call{Sign: fft1d.Forward}); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken runner's next run returned %v", err)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	for _, team := range eng.teams {
		if !team.usable() {
			t.Fatal("the engine pooled a team a lane panicked in")
		}
	}
}

func TestExecutorCloseIdempotentAndRejectsRuns(t *testing.T) {
	const iters, units, unitLen = 2, 1, 8
	n := iters * units * unitLen
	e, err := NewExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	stages := scaleStage(make([]complex128, n), make([]complex128, n), iters, units, unitLen, 2)
	if err := e.Run(stages, nil, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Run(stages, nil, nil); err == nil {
		t.Fatal("closed executor accepted a run")
	}
}

func TestNewExecutorRejectsBadWorkerCounts(t *testing.T) {
	if _, err := NewExecutor(-1); err == nil {
		t.Fatal("negative lane count accepted")
	}
	e, err := NewExecutor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Lanes() != 1 {
		t.Fatalf("zero lanes runs %d, want one", e.Lanes())
	}
}

func TestExecutorObservability(t *testing.T) {
	const iters, units, unitLen, lanes = 4, 2, 8, 2
	n := iters * units * unitLen
	col := obs.NewCollector(lanes, []string{"scale"}, 0)
	e, err := NewExecutor(lanes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i+1), 0)
	}
	stages := scaleStage(dst, src, iters, units, unitLen, 2)

	const runs = 3
	for run := 0; run < runs; run++ {
		if err := e.Run(stages, col, nil); err != nil {
			t.Fatal(err)
		}
	}

	s := col.Snapshot()
	if s.Runs != runs {
		t.Fatalf("runs = %d, want %d", s.Runs, runs)
	}
	if s.Steps != runs*iters || s.BothBusySteps != 0 || s.DataWorkers != lanes || s.ComputeWorkers != lanes {
		t.Fatalf("steps %d, both busy %d, workers %d/%d; want %d, 0, %d/%d",
			s.Steps, s.BothBusySteps, s.DataWorkers, s.ComputeWorkers, runs*iters, lanes, lanes)
	}
	st := s.Stages[0]
	// Every element is loaded once and stored once per run: n complex
	// elements × 16 B each way.
	wantBytes := uint64(runs * n * 16)
	if st.Load.Bytes != wantBytes || st.Store.Bytes != wantBytes {
		t.Fatalf("load/store bytes = %d/%d, want %d", st.Load.Bytes, st.Store.Bytes, wantBytes)
	}
	if st.Load.GBs <= 0 || st.Store.GBs <= 0 || st.GBs <= 0 {
		t.Fatalf("bandwidth not measured: %+v", st)
	}
	if st.ComputeOps != runs*iters { // one compute op a block
		t.Fatalf("compute ops = %d, want %d", st.ComputeOps, runs*iters)
	}
	if s.WallNs == 0 {
		t.Fatal("wall time not recorded")
	}
	var wait uint64
	for i, l := range s.Lanes {
		if l.LegNs == 0 {
			t.Errorf("lane %d recorded no op time", i)
		}
		wait += l.BarrierWaitNs
	}
	if len(s.Lanes) != lanes || wait != s.BarrierWaitNs {
		t.Fatalf("%d lanes waiting %d ns, snapshot %d ns", len(s.Lanes), wait, s.BarrierWaitNs)
	}
}

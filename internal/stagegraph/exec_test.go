package stagegraph

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// scaleStage builds a one-stage graph multiplying src by scale into dst.
func scaleStage(dst, src []complex128, iters, units, unitLen int, scale complex128) []Stage {
	ul := unitLen
	return []Stage{{
		Name: "scale", Iters: iters, Units: units, UnitLen: unitLen,
		Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
		Compute: func(b *Buffers, _ *kernels.Arena, _ []complex128, half, iter, lo, hi int) {
			h := b.C[half]
			for j := lo * ul; j < hi*ul; j++ {
				h[j] *= scale
			}
		},
		Rot: Rotation{Blocks: 1, BlockLen: unitLen, Map: func(g, _ int) int { return g * ul }},
	}}
}

func TestExecutorReuseAcrossRuns(t *testing.T) {
	const iters, units, unitLen = 3, 2, 8
	n := iters * units * unitLen
	col := obs.NewCollector(2, 2, []string{"scale"})
	e, err := NewExecutor(Config{DataWorkers: 2, ComputeWorkers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i+1), float64(i%3))
	}
	b := NewBuffers(units*unitLen, false)
	stages := scaleStage(dst, src, iters, units, unitLen, 2)
	sched := Compile(stages, true)

	for run := 0; run < 5; run++ {
		for i := range dst {
			dst[i] = 0
		}
		before := col.Snapshot().Steps
		if err := e.Run(b, stages, sched, nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if steps := col.Snapshot().Steps - before; steps != uint64(sched.Steps()) {
			t.Fatalf("run %d: steps %d, want %d", run, steps, sched.Steps())
		}
		for i := range dst {
			if dst[i] != 2*src[i] {
				t.Fatalf("run %d elem %d: got %v want %v", run, i, dst[i], 2*src[i])
			}
		}
	}
}

// One compiled schedule must be replayable against different graphs of the
// same shape — and rejected for graphs of a different shape.
func TestScheduleShapeChecked(t *testing.T) {
	const units, unitLen = 2, 8
	e, err := NewExecutor(Config{DataWorkers: 1, ComputeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := NewBuffers(units*unitLen, false)

	mk := func(iters int) []Stage {
		n := iters * units * unitLen
		return scaleStage(make([]complex128, n), make([]complex128, n), iters, units, unitLen, 2)
	}
	sched := Compile(mk(3), true)
	if err := e.Run(b, mk(3), sched, nil); err != nil {
		t.Fatalf("same-shape graph rejected: %v", err)
	}
	if err := e.Run(b, mk(4), sched, nil); err == nil {
		t.Fatal("schedule compiled for 3 iters accepted a 4-iter graph")
	}
	if err := e.Run(b, mk(3), nil, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestExecutorBrokenAfterPanic(t *testing.T) {
	const iters, units, unitLen = 2, 1, 8
	n := iters * units * unitLen
	e, err := NewExecutor(Config{DataWorkers: 2, ComputeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := NewBuffers(units*unitLen, false)
	stages := scaleStage(make([]complex128, n), make([]complex128, n), iters, units, unitLen, 2)
	stages[0].Compute = func(*Buffers, *kernels.Arena, []complex128, int, int, int, int) { panic("kernel exploded") }
	sched := Compile(stages, true)

	if err := e.Run(b, stages, sched, nil); err == nil {
		t.Fatal("panic in compute not surfaced")
	}
	// The team's step barriers are poisoned: subsequent runs must fail
	// fast instead of deadlocking.
	if err := e.Run(b, stages, sched, nil); err == nil {
		t.Fatal("broken executor accepted another run")
	}
}

func TestExecutorCloseIdempotentAndRejectsRuns(t *testing.T) {
	const iters, units, unitLen = 2, 1, 8
	n := iters * units * unitLen
	e, err := NewExecutor(Config{DataWorkers: 1, ComputeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffers(units*unitLen, false)
	stages := scaleStage(make([]complex128, n), make([]complex128, n), iters, units, unitLen, 2)
	sched := Compile(stages, true)
	if err := e.Run(b, stages, sched, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Run(b, stages, sched, nil); err == nil {
		t.Fatal("closed executor accepted a run")
	}
}

func TestNewExecutorRejectsBadWorkerCounts(t *testing.T) {
	if _, err := NewExecutor(Config{DataWorkers: 0, ComputeWorkers: 1}); err == nil {
		t.Fatal("zero data workers accepted")
	}
	if _, err := NewExecutor(Config{DataWorkers: 1, ComputeWorkers: 0}); err == nil {
		t.Fatal("zero compute workers accepted")
	}
}

func TestExecutorObservability(t *testing.T) {
	const iters, units, unitLen = 4, 2, 8
	n := iters * units * unitLen
	col := obs.NewCollector(2, 2, []string{"scale"})
	e, err := NewExecutor(Config{DataWorkers: 2, ComputeWorkers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	src := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i+1), 0)
	}
	b := NewBuffers(units*unitLen, false)
	stages := scaleStage(dst, src, iters, units, unitLen, 2)
	sched := Compile(stages, true)

	const runs = 3
	for run := 0; run < runs; run++ {
		if err := e.Run(b, stages, sched, nil); err != nil {
			t.Fatal(err)
		}
		if want, got := float64(sched.BusyBothSteps())/float64(sched.Steps()), col.Snapshot().LastRunOccupancy; got != want {
			t.Fatalf("run %d occupancy = %v, want %v", run, got, want)
		}
	}

	s := col.Snapshot()
	if s.Runs != runs {
		t.Fatalf("runs = %d, want %d", s.Runs, runs)
	}
	if s.Steps != uint64(runs*sched.Steps()) || s.BothBusySteps != uint64(runs*sched.BusyBothSteps()) {
		t.Fatalf("steps/bothBusy = %d/%d, want %d/%d",
			s.Steps, s.BothBusySteps, runs*sched.Steps(), runs*sched.BusyBothSteps())
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
	if st.ComputeOps != uint64(runs*iters*2) { // 2 compute workers share each iter
		t.Fatalf("compute ops = %d, want %d", st.ComputeOps, runs*iters*2)
	}
	if s.WallNs == 0 {
		t.Fatal("wall time not recorded")
	}
	if s.LastRunOccupancy != float64(sched.BusyBothSteps())/float64(sched.Steps()) {
		t.Fatalf("last-run occupancy = %v", s.LastRunOccupancy)
	}
}

// The fused schedule must report strictly higher overlap occupancy than the
// drain-at-every-boundary unfused schedule of the same graph.
func TestScheduleOccupancyFusedVsUnfused(t *testing.T) {
	mk := func() []Stage {
		st := scaleStage(make([]complex128, 64), make([]complex128, 64), 4, 1, 16, 2)[0]
		return []Stage{st, st, st}
	}
	fused := Compile(mk(), true)
	unfused := Compile(mk(), false)
	fo := float64(fused.BusyBothSteps()) / float64(fused.Steps())
	uo := float64(unfused.BusyBothSteps()) / float64(unfused.Steps())
	if fused.Steps() >= unfused.Steps() {
		t.Fatalf("fused steps %d not fewer than unfused %d", fused.Steps(), unfused.Steps())
	}
	if fo <= uo {
		t.Fatalf("fused occupancy %v not above unfused %v", fo, uo)
	}
}

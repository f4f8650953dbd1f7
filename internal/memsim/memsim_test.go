package memsim

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

func TestResourceSharing(t *testing.T) {
	// Two equal tasks on one resource take twice as long as one.
	r := NewResource("dram", 100)
	e := &Engine{}
	a := &Task{Name: "a", Resource: r, Units: 100}
	b := &Task{Name: "b", Resource: r, Units: 100}
	e.Start(a)
	e.Start(b)
	e.WaitAll(a, b)
	if math.Abs(e.Now()-2.0) > 1e-9 {
		t.Fatalf("shared time %v, want 2", e.Now())
	}
}

func TestIndependentResourcesOverlap(t *testing.T) {
	dram := NewResource("dram", 100)
	comp := NewResource("comp", 50)
	e := &Engine{}
	a := &Task{Name: "move", Resource: dram, Units: 100} // 1s alone
	b := &Task{Name: "fft", Resource: comp, Units: 100}  // 2s alone
	e.Start(a)
	e.Start(b)
	e.WaitAll(a, b)
	if math.Abs(e.Now()-2.0) > 1e-9 {
		t.Fatalf("overlapped time %v, want max(1,2)=2", e.Now())
	}
}

func TestZeroUnitTaskIsFree(t *testing.T) {
	e := &Engine{}
	tk := &Task{Name: "nil", Resource: NewResource("x", 1), Units: 0}
	e.Start(tk)
	e.WaitAll(tk)
	if e.Now() != 0 || !tk.done {
		t.Fatal("zero-unit task should complete instantly")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := &Engine{}
	tk := &Task{Name: "t", Resource: NewResource("x", 1), Units: 5}
	e.Start(tk)
	e.Start(tk)
}

func TestBadResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource("zero", 0)
}

func TestStageMemoryBoundTime(t *testing.T) {
	// Memory-bound stage with ample compute: time ≈ (iters+2)/iters ×
	// iters × (load+store)/BW when compute never binds.
	r := Resources{
		DRAM:    NewResource("dram", 100),
		Compute: NewResource("comp", 1e12),
	}
	s := StageSpec{Iters: 10, LoadBytes: 50, StoreLocalBytes: 50, Flops: 1}
	got := SimulateGraph(r, []StageSpec{s})
	// Each step's data chain moves 100 bytes at 100 B/s = 1 s; loads run
	// in 10 steps and stores in 10 steps skewed by two: 12 steps total,
	// but the prologue/epilogue steps only carry half the data. Total
	// bytes = 10·100 = 1000 → at least 10 s; with fill ≈ 11 s.
	if got < 10 || got > 12.5 {
		t.Fatalf("stage time %v, want ≈ 11", got)
	}
}

func TestStageComputeBoundTime(t *testing.T) {
	r := Resources{
		DRAM:    NewResource("dram", 1e12),
		Compute: NewResource("comp", 10),
	}
	s := StageSpec{Iters: 10, LoadBytes: 1, StoreLocalBytes: 1, Flops: 100}
	got := SimulateGraph(r, []StageSpec{s})
	// 10 compute blocks × 10 s each, data free → ≈ 100 s.
	if got < 99 || got > 102 {
		t.Fatalf("stage time %v, want ≈ 100", got)
	}
}

// The discrete-event simulation and the closed-form perfmodel must agree:
// they share inputs but derive time independently.
func TestAgreesWithPerfmodelSingleSocket(t *testing.T) {
	for _, m := range []machine.Machine{machine.KabyLake7700K, machine.Haswell4770K, machine.FX8350} {
		mo := perfmodel.New(m)
		for _, s := range [][3]int{{512, 512, 512}, {1024, 1024, 1024}} {
			sim, err := SimulateDoubleBuf3D(m, s[0], s[1], s[2], 1)
			if err != nil {
				t.Fatal(err)
			}
			closed := mo.DoubleBuf3D(s[0], s[1], s[2], 1).Seconds
			ratio := sim / closed
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s %v: memsim %.3fs vs perfmodel %.3fs (ratio %.3f)",
					m.Name, s, sim, closed, ratio)
			}
		}
	}
}

func TestAgreesWithPerfmodelDualSocket(t *testing.T) {
	m := machine.Haswell2667
	mo := perfmodel.New(m)
	sim, err := SimulateDoubleBuf3D(m, 1024, 1024, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	closed := mo.DoubleBuf3D(1024, 1024, 1024, 2).Seconds
	ratio := sim / closed
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("2S: memsim %.3fs vs perfmodel %.3fs (ratio %.3f)", sim, closed, ratio)
	}
	// Socket scaling must reproduce the QPI limitation in the event
	// simulation too.
	one, err := SimulateDoubleBuf3D(m, 1024, 1024, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	scale := one / sim
	if scale < 1.4 || scale > 2.05 {
		t.Errorf("simulated socket scaling %.2f, want ≈ 1.6-2", scale)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateDoubleBuf3D(machine.KabyLake7700K, 64, 64, 64, 2); err == nil {
		t.Fatal("accepted more sockets than the machine has")
	}
}

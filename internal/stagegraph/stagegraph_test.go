package stagegraph

import (
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/trace"
)

// chainGraph builds a simple multi-stage graph over nIters blocks of
// units×unitLen elements per stage: every stage scales its data and passes
// it through an identity rotation into the next array.
func chainGraph(srcData []complex128, mids [][]complex128, dst []complex128,
	iters, units, unitLen int, scale complex128) []Stage {
	arrays := append([][]complex128{srcData}, mids...)
	arrays = append(arrays, dst)
	var stages []Stage
	for s := 0; s+1 < len(arrays); s++ {
		ul := unitLen
		stages = append(stages, Stage{
			Name: "chain", Iters: iters, Units: units, UnitLen: unitLen,
			Src: Endpoint{C: arrays[s]}, Dst: Endpoint{C: arrays[s+1]},
			Compute: func(b *Buffers, _ *kernels.Arena, src []complex128, _ int) {
				for j := range src {
					b.C[j] = src[j] * scale
				}
			},
			Rot: Rotation{Blocks: 1, BlockLen: unitLen, Map: func(g, _ int) int { return g * ul }},
		})
	}
	return stages
}

// runOnce runs stages once on a throwaway executor of the given lane count,
// recording into col and, when it is non-nil, traced into tr.
func runOnce(lanes int, col *obs.Collector, stages []Stage, tr *trace.Recorder) error {
	e, err := NewExecutor(lanes)
	if err != nil {
		return err
	}
	defer e.Close()
	return e.Run(stages, col, tr)
}

func runChain(t *testing.T, stagesN, iters, lanes int, tr *trace.Recorder) []complex128 {
	t.Helper()
	const units, unitLen = 4, 8
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%13)+1, float64(i%7))
	}
	mids := make([][]complex128, stagesN-1)
	for i := range mids {
		mids[i] = make([]complex128, n)
	}
	dst := make([]complex128, n)
	stages := chainGraph(src, mids, dst, iters, units, unitLen, 2)
	names := make([]string, len(stages))
	for i := range stages {
		names[i] = stages[i].Name
	}
	col := obs.NewCollector(lanes, names, 0)
	if err := runOnce(lanes, col, stages, tr); err != nil {
		t.Fatal(err)
	}
	st := col.Snapshot()
	if want := stagesN * iters; st.Steps != uint64(want) {
		t.Fatalf("Steps=%d, want %d blocks", st.Steps, want)
	}
	if len(st.Stages) != stagesN || len(st.Lanes) != lanes {
		t.Fatalf("%d stages and %d lanes, want %d and %d", len(st.Stages), len(st.Lanes), stagesN, lanes)
	}
	want := make([]complex128, n)
	scale := complex128(1)
	for s := 0; s < stagesN; s++ {
		scale *= 2
	}
	for i := range want {
		want[i] = src[i] * scale
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("elem %d: got %v want %v (%d lanes)", i, dst[i], want[i], lanes)
		}
	}
	return dst
}

// Every block of every stage is loaded, computed and stored exactly once,
// in order, by the lane whose share it is, and no stage starts before the
// last store of the one before — with more lanes than iterations too. (The
// name is the one the fused step schedule's check had; the lane schedule
// took its place.)
func TestFusedScheduleCorrectAndChecked(t *testing.T) {
	for _, stagesN := range []int{1, 2, 3} {
		for _, iters := range []int{1, 2, 5} {
			for _, lanes := range []int{1, 2, 3} {
				tr := trace.New()
				runChain(t, stagesN, iters, lanes, tr)
				iterCounts := make([]int, stagesN)
				for i := range iterCounts {
					iterCounts[i] = iters
				}
				if err := CheckLanes(tr, iterCounts, lanes); err != nil {
					t.Fatalf("stages=%d iters=%d lanes=%d: %v", stagesN, iters, lanes, err)
				}
			}
		}
	}
}

// Lanes run at once, so one lane's data movement hides under another's
// work: with compute hooks that sleep, two lanes take about half the wall
// of one. The naps are long against a wake-up on a loaded host, so the 0.7
// bound leaves room for scheduling delay.
func TestOverlapHidesDataMovement(t *testing.T) {
	const iters, nap = 8, 10 * time.Millisecond
	wall := func(lanes int) time.Duration {
		n := iters * 8
		st := Stage{
			Name: "nap", Iters: iters, Units: 1, UnitLen: 8,
			Src: Endpoint{C: make([]complex128, n)}, Dst: Endpoint{C: make([]complex128, n)},
			Compute: func(*Buffers, *kernels.Arena, []complex128, int) { time.Sleep(nap) },
			Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, _ int) int { return g * 8 }},
		}
		start := time.Now()
		if err := runOnce(lanes, nil, []Stage{st, st}, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	one, two := wall(1), wall(2)
	if one < 2*iters*nap {
		t.Fatalf("one lane took %v, under the %v its naps need", one, 2*iters*nap)
	}
	if r := float64(two) / float64(one); r > 0.7 {
		t.Errorf("two lanes took %v against one lane's %v (%.2f×), want about half", two, one, r)
	}
}

func TestValidationErrors(t *testing.T) {
	good := Stage{
		Name: "ok", Iters: 1, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 8)}, Dst: Endpoint{C: make([]complex128, 8)},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int) {},
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return 0 }},
	}
	cases := []func(s *Stage){
		func(s *Stage) { s.Iters = 0 },
		func(s *Stage) { s.Units = 0 },
		func(s *Stage) { s.Compute = nil },
		func(s *Stage) { s.Rot.Map = nil },
		func(s *Stage) { s.Rot.Blocks = 2 }, // 2×8 ≠ store unit 8
		func(s *Stage) { s.Src = Endpoint{} },
		func(s *Stage) { s.Dst = Endpoint{} },
		func(s *Stage) { s.Src = Endpoint{WriteC: func(int, int, []complex128) {}} },          // block writer as a source
		func(s *Stage) { s.Dst = Endpoint{C: make([]complex128, 8), R: make([]float64, 16)} }, // two representations
		func(s *Stage) { s.FoldLoad, s.Src = true, Endpoint{R: make([]float64, 16)} },         // folded load of a real array
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if err := runOnce(0, nil, []Stage{s}, nil); err == nil {
			t.Fatalf("case %d: invalid stage accepted", i)
		}
	}
	e, err := NewExecutor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(nil, nil, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	if err := runOnce(-1, nil, []Stage{good}, nil); err == nil {
		t.Fatal("negative lane count accepted")
	}
}

func TestComputePanicPropagates(t *testing.T) {
	s := Stage{
		Name: "boom", Iters: 2, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 16)}, Dst: Endpoint{C: make([]complex128, 16)},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int) { panic("kernel exploded") },
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return g * 8 }},
	}
	err := runOnce(2, nil, []Stage{s}, nil)
	if err == nil {
		t.Fatal("panic in compute not surfaced")
	}
}

func TestStagingStore(t *testing.T) {
	// Compute transposes each unit into the staging half; the store reads
	// the staging half with a store tiling that differs from the load's —
	// the mechanism the real-inverse entangle stage uses.
	const iters, units, unitLen = 2, 2, 4
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	dst := make([]complex128, n)
	stages := []Stage{{
		Name: "tr", Iters: iters, Units: units, UnitLen: unitLen,
		Src: Endpoint{C: src}, Dst: Endpoint{C: dst},
		Compute: func(b *Buffers, _ *kernels.Arena, src []complex128, _ int) {
			// Transpose the units×unitLen tile into unitLen×units.
			for u := 0; u < units; u++ {
				for j := 0; j < unitLen; j++ {
					b.T[j*units+u] = src[u*unitLen+j]
				}
			}
		},
		StoreUnits: unitLen, StoreLen: units, StoreFromStaging: true,
		Rot: Rotation{Blocks: 1, BlockLen: units, Map: func(g, _ int) int {
			// Store unit g = iter*unitLen + j: column j of the global
			// (iters·units)×unitLen matrix, rows iter*units.., so it
			// lands at j*(iters*units) + iter*units.
			j, it := g%unitLen, g/unitLen
			return j*(iters*units) + it*units
		}},
	}}
	if err := runOnce(2, nil, stages, nil); err != nil {
		t.Fatal(err)
	}
	// dst should be the transpose of the (iters·units)×unitLen matrix.
	rows, cols := iters*units, unitLen
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if dst[c*rows+r] != src[r*cols+c] {
				t.Fatalf("transpose wrong at (%d,%d): got %v want %v", r, c, dst[c*rows+r], src[r*cols+c])
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	stages := []Stage{
		{Name: "rows", Iters: 8, Units: 4, UnitLen: 16,
			Rot: Rotation{Blocks: 4, BlockLen: 4}},
		{Name: "cols", Iters: 8, Units: 2, UnitLen: 32,
			Rot: Rotation{Blocks: 8, BlockLen: 4}},
	}
	out := Describe(stages)
	for _, want := range []string{"2 stages", "each lane", "rows", "cols", "16 iterations, 2 stage barrier(s)"} {
		if !contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package stagegraph

import (
	"testing"

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
			Compute: func(b *Buffers, _ *kernels.Arena, _ []complex128, half, iter, lo, hi int) {
				half_ := b.C[half]
				for j := lo * ul; j < hi*ul; j++ {
					half_[j] *= scale
				}
			},
			Rot: Rotation{Blocks: 1, BlockLen: unitLen, Map: func(g, _ int) int { return g * ul }},
		})
	}
	return stages
}

// runOnce runs stages once on a throwaway executor: compiled with fusion
// on or off, traced into tr when it is non-nil.
func runOnce(cfg Config, b *Buffers, stages []Stage, fused bool, tr *trace.Recorder) error {
	e, err := NewExecutor(cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	return e.Run(b, stages, Compile(stages, fused), tr)
}

func runChain(t *testing.T, stagesN, iters int, fused bool, tr *trace.Recorder) []complex128 {
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
	b := NewBuffers(units*unitLen, false)
	names := make([]string, len(stages))
	for i := range stages {
		names[i] = stages[i].Name
	}
	col := obs.NewCollector(2, 2, names)
	if err := runOnce(Config{DataWorkers: 2, ComputeWorkers: 2, Obs: col}, b, stages, fused, tr); err != nil {
		t.Fatal(err)
	}
	st := col.Snapshot()
	if want := Steps(stages, fused); st.Steps != uint64(want) {
		t.Fatalf("Steps=%d, want %d", st.Steps, want)
	}
	if len(st.Stages) != stagesN {
		t.Fatalf("Stages=%d, want %d", len(st.Stages), stagesN)
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
			t.Fatalf("elem %d: got %v want %v (fused=%v)", i, dst[i], want[i], fused)
		}
	}
	return dst
}

func TestFusedScheduleCorrectAndChecked(t *testing.T) {
	for _, stagesN := range []int{1, 2, 3} {
		for _, iters := range []int{1, 2, 5} {
			for _, fused := range []bool{true, false} {
				tr := trace.New()
				runChain(t, stagesN, iters, fused, tr)
				iterCounts := make([]int, stagesN)
				for i := range iterCounts {
					iterCounts[i] = iters
				}
				if err := tr.CheckStageGraph(iterCounts, fused); err != nil {
					t.Fatalf("stages=%d iters=%d fused=%v: %v", stagesN, iters, fused, err)
				}
			}
		}
	}
}

func TestFusedDrainsOncePerTransform(t *testing.T) {
	for _, stagesN := range []int{1, 2, 3} {
		tr := trace.New()
		runChain(t, stagesN, 4, true, tr)
		if d := tr.DrainCount(); d != 1 {
			t.Fatalf("fused %d-stage graph drained %d times, want 1", stagesN, d)
		}
		tr = trace.New()
		runChain(t, stagesN, 4, false, tr)
		if d := tr.DrainCount(); d != stagesN {
			t.Fatalf("unfused %d-stage graph drained %d times, want %d", stagesN, d, stagesN)
		}
	}
}

// The acceptance property of fusion: the last store of stage k and the
// first load of stage k+1 execute in the same step, on the same buffer
// half (store-before-load ordered by the data barrier).
func TestFusedBoundaryOverlap(t *testing.T) {
	const stagesN, iters = 3, 5
	tr := trace.New()
	runChain(t, stagesN, iters, true, tr)
	for s := 0; s+1 < stagesN; s++ {
		var lastStoreStep, firstLoadStep = -1, -1
		var storeBuf, loadBuf int
		for _, e := range tr.Events() {
			if e.Op == trace.Store && e.Stage == s && e.Iter == iters-1 {
				lastStoreStep, storeBuf = e.Step, e.Buf
			}
			if e.Op == trace.Load && e.Stage == s+1 && e.Iter == 0 {
				firstLoadStep, loadBuf = e.Step, e.Buf
			}
		}
		if lastStoreStep < 0 || firstLoadStep < 0 {
			t.Fatalf("boundary %d: missing events", s)
		}
		if lastStoreStep != firstLoadStep {
			t.Fatalf("boundary %d: store(last) at step %d, load(first) at step %d — not overlapped",
				s, lastStoreStep, firstLoadStep)
		}
		if storeBuf != loadBuf {
			t.Fatalf("boundary %d: store from half %d but load into half %d", s, storeBuf, loadBuf)
		}
	}
	// Unfused, the same boundary is strictly ordered across steps.
	tr = trace.New()
	runChain(t, stagesN, iters, false, tr)
	for _, e := range tr.Events() {
		if e.Op == trace.Load && e.Stage == 1 && e.Iter == 0 {
			for _, e2 := range tr.Events() {
				if e2.Op == trace.Store && e2.Stage == 0 && e2.Iter == iters-1 && e2.Step >= e.Step {
					t.Fatalf("unfused boundary not drained: store step %d ≥ load step %d", e2.Step, e.Step)
				}
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	b := NewBuffers(8, false)
	good := Stage{
		Name: "ok", Iters: 1, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 8)}, Dst: Endpoint{C: make([]complex128, 8)},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int, int, int, int) {},
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return 0 }},
	}
	cases := []func(s *Stage){
		func(s *Stage) { s.Iters = 0 },
		func(s *Stage) { s.Units = 0 },
		func(s *Stage) { s.Compute = nil },
		func(s *Stage) { s.Rot.Map = nil },
		func(s *Stage) { s.Rot.Blocks = 2 }, // 2×8 ≠ store unit 8
		func(s *Stage) { s.UnitLen = 16 },   // block exceeds buffer half
		func(s *Stage) { s.Src = Endpoint{} },
		func(s *Stage) { s.Dst = Endpoint{} },
		func(s *Stage) { s.Src = Endpoint{WriteC: func(int, []complex128) {}} },               // block writer as a source
		func(s *Stage) { s.Dst = Endpoint{C: make([]complex128, 8), R: make([]float64, 16)} }, // two representations
		func(s *Stage) { s.StoreFromStaging = true },                                          // no staging halves
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if err := runOnce(Config{DataWorkers: 1, ComputeWorkers: 1}, b, []Stage{s}, false, nil); err == nil {
			t.Fatalf("case %d: invalid stage accepted", i)
		}
	}
	e, err := NewExecutor(Config{DataWorkers: 1, ComputeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(b, nil, Compile(nil, true), nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	if err := runOnce(Config{DataWorkers: 0, ComputeWorkers: 1}, b, []Stage{good}, false, nil); err == nil {
		t.Fatal("zero data workers accepted")
	}
}

func TestComputePanicPropagates(t *testing.T) {
	b := NewBuffers(8, false)
	s := Stage{
		Name: "boom", Iters: 2, Units: 1, UnitLen: 8,
		Src: Endpoint{C: make([]complex128, 16)}, Dst: Endpoint{C: make([]complex128, 16)},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int, int, int, int) { panic("kernel exploded") },
		Rot:     Rotation{Blocks: 1, BlockLen: 8, Map: func(g, j int) int { return g * 8 }},
	}
	err := runOnce(Config{DataWorkers: 2, ComputeWorkers: 2}, b, []Stage{s}, true, nil)
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
		Compute: func(b *Buffers, _ *kernels.Arena, _ []complex128, half, iter, lo, hi int) {
			// Transpose the units×unitLen tile into unitLen×units.
			for u := lo; u < hi; u++ {
				for j := 0; j < unitLen; j++ {
					b.T[half][j*units+u] = b.C[half][u*unitLen+j]
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
	b := NewBuffers(units*unitLen, true)
	if err := runOnce(Config{DataWorkers: 1, ComputeWorkers: 1}, b, stages, true, nil); err != nil {
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
	out := Describe(stages, true)
	for _, want := range []string{"2 stages", "fused", "rows", "cols", "1 drain"} {
		if !contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	if Steps(stages, true) != 8+8+2+1 {
		t.Fatalf("fused steps = %d", Steps(stages, true))
	}
	if Steps(stages, false) != 10+10 {
		t.Fatalf("unfused steps = %d", Steps(stages, false))
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

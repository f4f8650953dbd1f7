package main

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	if got := percentile(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
	if got := median(v); got != 100.5 {
		t.Errorf("median of 1..200 = %v, want 100.5", got)
	}
	// p95 needs ten samples beyond it: 200 is the smallest sample that has them.
	if !tailResolved(200, 0.95) || tailResolved(199, 0.95) {
		t.Errorf("tailResolved: 200 → %v, 199 → %v; want true, false", tailResolved(200, 0.95), tailResolved(199, 0.95))
	}
	if tailResolved(3, 0.95) {
		t.Error("three samples cannot resolve a p95")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25−2.75)/5.5 = 1", got)
	}
}

func TestOpsPerSecIsAQuietWindow(t *testing.T) {
	// Two clients at 10 ms/op; a third of client 0's pass runs at 40 ms/op.
	quiet := make([]time.Duration, 300)
	hit := make([]time.Duration, 300)
	for i := range quiet {
		quiet[i], hit[i] = 10*time.Millisecond, 10*time.Millisecond
		if i >= 100 && i < 200 {
			hit[i] = 40 * time.Millisecond
		}
	}
	if got := opsPerSec([][]time.Duration{hit, quiet}); math.Abs(got-200) > 1e-9 {
		t.Errorf("ops/s with a disturbed third = %v, want 200", got)
	}
	// Fewer ops than windows: every op is a window, and of three the
	// nearest-rank 90th percentile is the fastest.
	few := []time.Duration{2 * time.Second, time.Second, 4 * time.Second}
	if got := opsPerSec([][]time.Duration{few}); got != 1 {
		t.Errorf("ops/s of 2 s, 1 s, 4 s ops = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "encode", Start: 0, End: 10, Parent: 0},
		{Name: "roundtrip", Start: 10, End: 80, Parent: 0},
		{Name: "decode", Start: 80, End: 95, Parent: 0},
	}
	r.add("do", 2, 0, 5, 40) // starts before its parent: clipped to 10..40
	self := selfTimes(r.spans)
	want := []int64{5, 10, 40, 15, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", r.spans[i].Name, self[i], want[i])
		}
	}
	// Overlapping children are covered once.
	over := []span{
		{Name: "p", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0},
	}
	if got := selfTimes(over)[0]; got != 40 {
		t.Errorf("self time under overlapping children = %d, want 40", got)
	}
	// A nil recorder records nothing and hands out a harmless handle.
	var none *recorder
	none.end(none.begin("x", -1, 0))
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := make([]complex128, 1000), make([]complex128, 1000), make([]complex128, 1000)
	fillComplex(a, 7, 1)
	fillComplex(b, 7, 1)
	fillComplex(c, 8, 1)
	if firstDiff(a, b) != -1 {
		t.Error("the same seed gave different inputs")
	}
	if firstDiff(a, c) == -1 {
		t.Error("different seeds gave the same inputs")
	}
	for _, v := range a {
		if math.Abs(real(v)) >= 1 || math.Abs(imag(v)) >= 1 {
			t.Fatalf("value %v outside [-1, 1)", v)
		}
	}
	// Pinned values: the stream must not change under a later refactor, or
	// results stop being comparable across commits.
	if got := newRNG(1, 1).next(); got != 0x90ef6b344444557b {
		t.Errorf("first value of stream (1, 1) = %#x, want 0x90ef6b344444557b", got)
	}
}

func TestDFTBinMatchesDefinition(t *testing.T) {
	dims := [3]int{3, 4, 10}
	x := make([]complex128, 3*4*10)
	fillComplex(x, 3, 1)
	bin := [3]int{2, 1, 7}
	var want complex128
	for z := 0; z < 3; z++ {
		for y := 0; y < 4; y++ {
			for i := 0; i < 10; i++ {
				ang := -2 * math.Pi * (float64(2*z)/3 + float64(1*y)/4 + float64(7*i)/10)
				want += x[(z*4+y)*10+i] * cmplx.Exp(complex(0, ang))
			}
		}
	}
	got, _ := dftBin(func(i int) complex128 { return x[i] }, dims, bin)
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("dftBin = %v, want %v", got, want)
	}
}

// corruptWL is a toy transform workload whose every second output is wrong.
type corruptWL struct{ transformWL }

func (w *corruptWL) op(c, n int, rec *recorder) (time.Duration, error) {
	fwd, inv, err := w.t.roundTrip(rec, -1, n)
	if err != nil {
		return 0, err
	}
	if n%2 == 1 {
		w.t.bk[5] += 1e-6
	}
	return fwd + inv, w.t.checkRoundTrip()
}

func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	w := &corruptWL{transformWL{sh: shape{"c2d", [3]int{1, 32, 32}}}}
	if err := w.prepare(1); err != nil {
		t.Fatal(err)
	}
	if _, err := setUp(w); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	p := runPass(w, 20*time.Millisecond, false)
	if p.attempted < 2 {
		t.Fatalf("only %d ops attempted", p.attempted)
	}
	if want := p.attempted / 2; p.failed != want {
		t.Errorf("%d of %d ops counted as failed, want %d (every second output was corrupted)", p.failed, p.attempted, want)
	}
	if p.firstErr == nil || len(p.lat) != p.attempted-p.failed {
		t.Errorf("failed ops must not contribute latencies: %d samples, firstErr %v", len(p.lat), p.firstErr)
	}

	// The set-up spot check catches a spectrum that is wrong but round-trips.
	for i := range w.t.spec {
		w.t.spec[i] *= 1 + 1e-6
	}
	if err := w.t.spotCheck(1); err == nil {
		t.Error("spot check accepted a corrupted spectrum")
	}
}

func TestToyShapesVerify(t *testing.T) {
	for _, sh := range []shape{
		{"c1d", [3]int{1, 1, 8192}}, // above fft1dlarge's six-step threshold
		{"c2d", [3]int{1, 16, 32}},
		{"c3d", [3]int{8, 16, 32}},
		{"r3d", [3]int{8, 16, 32}},
	} {
		x := newXform(sh, 5)
		if _, err := x.firstRoundTrip(5); err != nil {
			t.Errorf("%v: %v", sh, err)
		}
		m := metrics{}
		replay(m, x, 1)
		if m["replay.load_ms"] <= 0 || m["replay.store_ms"] <= 0 {
			t.Errorf("%v: replay measured %v", sh, m)
		}
		x.close()
	}
}

func TestSpecFileMatchesProgram(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program gates %d", len(spec.Workloads), len(gatedWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, gatedWorkloads[i])
		}
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("gated workload %q is not in the suite", w.Name)
		}
	}
	for _, name := range workloadNames {
		if _, err := newWorkload(name, ".."); err != nil {
			t.Error(err)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default pass is %d s", spec.RunSeconds, defaultSeconds)
	}
	same := func(kind string, file []specMetric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program emits %d", kind, len(file), len(prog))
		}
		for i, d := range prog {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
			if file[i].Better != "higher" && file[i].Better != "lower" {
				t.Errorf("%s: better = %q", d.name, file[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if spec.Command[0] != "go" || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	// A run that misses a declared metric, or measures an undeclared one, is refused.
	m := metrics{}
	for _, d := range endToEnd {
		m[d.name] = 1
	}
	if err := checkComplete(m, endToEnd); err != nil {
		t.Error(err)
	}
	m["extra"] = 1
	if checkComplete(m, endToEnd) == nil {
		t.Error("undeclared metric accepted")
	}
	delete(m, "extra")
	delete(m, "setup_s")
	if checkComplete(m, endToEnd) == nil {
		t.Error("missing metric accepted")
	}
}

func TestCompareRefusesDifferentMeta(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64, ops float64) runRecord {
		r := runRecord{Workload: "cache2d", Meta: currentMeta(seed, 10)}
		r.Result.Metrics = map[string]resultVal{}
		for _, d := range endToEnd {
			r.Result.Metrics[d.name] = resultVal{100, d.unit}
		}
		r.Result.Metrics["ops_per_s"] = resultVal{ops, "1/s"}
		return r
	}
	if _, err := compareRecords(spec, mk(1, 100), mk(2, 100)); err == nil {
		t.Error("compared results with different seeds")
	}
	rows, err := compareRecords(spec, mk(1, 100), mk(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		want := "ok"
		if row.metric == "ops_per_s" {
			want = "unresolved"
		}
		if row.verdict != want {
			t.Errorf("%s: verdict %s, want %s (gap %.2f, bound %.2f)", row.metric, row.verdict, want, row.gap, row.bound)
		}
	}
}

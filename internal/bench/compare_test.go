package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCompareReportsThreshold(t *testing.T) {
	old := JSONReport{Entries: []JSONEntry{
		{Name: "kernel/a", GBPerS: 10},
		{Name: "kernel/b", GBPerS: 10},
		{Name: "serve/x", ReqPerS: 1000, NsPerOp: 1e6},
		{Name: "alloc/y", NsPerOp: 100},
		{Name: "gone", GBPerS: 5},
	}}
	new := JSONReport{Entries: []JSONEntry{
		{Name: "kernel/a", GBPerS: 8.5},               // 15% slower → regression
		{Name: "kernel/b", GBPerS: 9.5},               // 5% slower → within threshold
		{Name: "serve/x", ReqPerS: 850, NsPerOp: 2e6}, // judged on req/s, not ns/op
		{Name: "alloc/y", NsPerOp: 120},               // 20% more time → regression
		{Name: "added", GBPerS: 1},                    // no baseline → ignored
	}}
	regs := CompareReports(old, new, 0.10)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3: %v", len(regs), regs)
	}
	want := map[string]string{
		"kernel/a": "gb_per_s",
		"serve/x":  "req_per_s",
		"alloc/y":  "ns_per_op",
	}
	for _, r := range regs {
		if want[r.Name] != r.Metric {
			t.Fatalf("regression %s judged on %s, want %s", r.Name, r.Metric, want[r.Name])
		}
		if r.Delta <= 0.10 {
			t.Fatalf("regression %s delta %v not beyond threshold", r.Name, r.Delta)
		}
	}
}

// An entry the newer report no longer carries — a retired kernel — is not a
// regression: the gate compares what both snapshots measured. Pins the rule
// the removal of kernels/BatchSplitRadix{4,8}Step relied on.
func TestCompareReportsIgnoresRetiredEntries(t *testing.T) {
	old := JSONReport{Entries: []JSONEntry{
		{Name: "kernels/BatchRadix4Step", GBPerS: 20},
		{Name: "kernels/BatchSplitRadix4Step", GBPerS: 15},
		{Name: "kernels/BatchSplitRadix8Step", GBPerS: 9},
	}}
	new := JSONReport{Entries: []JSONEntry{{Name: "kernels/BatchRadix4Step", GBPerS: 20}}}
	if regs := CompareReports(old, new, 0.10); len(regs) != 0 {
		t.Fatalf("entries absent from the newer report flagged: %v", regs)
	}
}

func TestCompareReportsImprovementsPass(t *testing.T) {
	old := JSONReport{Entries: []JSONEntry{{Name: "a", GBPerS: 10}, {Name: "b", NsPerOp: 100}}}
	new := JSONReport{Entries: []JSONEntry{{Name: "a", GBPerS: 20}, {Name: "b", NsPerOp: 50}}}
	if regs := CompareReports(old, new, 0.10); len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %v", regs)
	}
}

func TestNewestTwoLexicalOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"BENCH_20260101-120000.json",
		"BENCH_20251231-235959.json",
		"BENCH_20260301-000000.json",
		"unrelated.json",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	older, newer, err := NewestTwo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(older) != "BENCH_20260101-120000.json" ||
		filepath.Base(newer) != "BENCH_20260301-000000.json" {
		t.Fatalf("got (%s, %s)", older, newer)
	}

	if _, _, err := NewestTwo(t.TempDir()); err == nil {
		t.Fatal("empty dir must error")
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	os.WriteFile(oldPath, []byte(`{"entries":[{"name":"k","gb_per_s":10,"ns_per_op":1}]}`), 0o644)
	os.WriteFile(newPath, []byte(`{"entries":[{"name":"k","gb_per_s":5,"ns_per_op":2}]}`), 0o644)
	regs, err := CompareFiles(oldPath, newPath, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "gb_per_s" || regs[0].Delta != 0.5 {
		t.Fatalf("got %v", regs)
	}

	if _, err := CompareFiles(oldPath, filepath.Join(dir, "missing.json"), 0.10); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCheckComparableTierGuard(t *testing.T) {
	avx2 := JSONReport{Meta: &MetaJSON{KernelTier: "avx2", CPUFeatures: "avx avx2 fma"}}
	generic := JSONReport{Meta: &MetaJSON{KernelTier: "generic", CPUFeatures: "none"}}
	legacy := JSONReport{} // pre-meta snapshot

	if err := CheckComparable(avx2, avx2); err != nil {
		t.Fatalf("same-tier comparison rejected: %v", err)
	}
	if err := CheckComparable(avx2, generic); err == nil {
		t.Fatal("cross-tier comparison accepted")
	}
	// A meta-less baseline stays comparable against anything so the first
	// post-tier benchcmp still runs.
	if err := CheckComparable(legacy, avx2); err != nil {
		t.Fatalf("legacy old report rejected: %v", err)
	}
	if err := CheckComparable(generic, legacy); err != nil {
		t.Fatalf("legacy new report rejected: %v", err)
	}
}

func TestCheckComparableCoreCountGuard(t *testing.T) {
	mk := func(maxprocs, cores int) JSONReport {
		return JSONReport{Meta: &MetaJSON{
			KernelTier: "avx2", GOMAXPROCS: maxprocs, PhysicalCores: cores,
		}}
	}
	if err := CheckComparable(mk(8, 4), mk(8, 4)); err != nil {
		t.Fatalf("same-shape comparison rejected: %v", err)
	}
	if err := CheckComparable(mk(8, 4), mk(4, 4)); err == nil {
		t.Fatal("cross-GOMAXPROCS comparison accepted")
	}
	if err := CheckComparable(mk(8, 4), mk(8, 8)); err == nil {
		t.Fatal("cross-core-count comparison accepted")
	}
	// Reports that predate the counters (zero fields) stay comparable, so
	// the first benchcmp after this change still runs.
	if err := CheckComparable(mk(0, 0), mk(8, 4)); err != nil {
		t.Fatalf("counter-less old report rejected: %v", err)
	}
}

func TestCheckComparableShardWorkersGuard(t *testing.T) {
	mk := func(workers int) JSONReport {
		return JSONReport{Meta: &MetaJSON{KernelTier: "avx2", ShardWorkers: workers}}
	}
	if err := CheckComparable(mk(4), mk(4)); err != nil {
		t.Fatalf("same-fleet comparison rejected: %v", err)
	}
	if err := CheckComparable(mk(4), mk(8)); err == nil {
		t.Fatal("cross-worker-count comparison accepted")
	}
	// A report without shard entries (zero field) stays comparable, so
	// baselines written before the shard tier still diff.
	if err := CheckComparable(mk(0), mk(4)); err != nil {
		t.Fatalf("shard-less old report rejected: %v", err)
	}
}

func TestCompareFilesTierMismatchFails(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	os.WriteFile(oldPath, []byte(`{"meta":{"kernel_tier":"generic"},"entries":[{"name":"k","gb_per_s":10}]}`), 0o644)
	os.WriteFile(newPath, []byte(`{"meta":{"kernel_tier":"avx2"},"entries":[{"name":"k","gb_per_s":30}]}`), 0o644)
	if _, err := CompareFiles(oldPath, newPath, 0.10); err == nil {
		t.Fatal("tier mismatch must error")
	}
}

func TestCurrentMetaConsistent(t *testing.T) {
	m := CurrentMeta()
	if m.KernelTier != "avx2" && m.KernelTier != "generic" {
		t.Fatalf("KernelTier = %q", m.KernelTier)
	}
	if m.CPUFeatures == "" {
		t.Fatal("CPUFeatures empty")
	}
}

//go:build linux

package layout_test

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// freshComplex maps n complex128 no one has touched.
func freshComplex(t *testing.T, n int) []complex128 {
	t.Helper()
	mem, err := syscall.Mmap(-1, 0, n*16, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	return unsafe.Slice((*complex128)(unsafe.Pointer(&mem[0])), n)
}

// On a kernel without MADV_POPULATE_WRITE every pre-fault fails with
// EINVAL, and a run goes on as it would without the pre-fault: the stores
// fault the pages in. The results are the bits of a run into arrays
// already resident, and no pre-fault is accounted.
func TestTransformsSurvivePrefaultEINVAL(t *testing.T) {
	calls := 0
	defer layout.SetMadvise(func(addr, n uintptr, advice int) error {
		calls++
		return syscall.EINVAL
	})()
	defer stagegraph.SetAblation(stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal})()
	p, err := core.NewPlan(core.Config{}, false, 32, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := cvec.Random(rand.New(rand.NewSource(1)), p.Len())
	warmSpec, warmBack := make([]complex128, p.Len()), make([]complex128, p.Len())
	if err := p.Transform(warmSpec, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(warmBack, warmSpec); err != nil {
		t.Fatal(err)
	}
	spec, back := freshComplex(t, p.Len()), freshComplex(t, p.Len())
	if err := p.Transform(spec, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(back, spec); err != nil {
		t.Fatal(err)
	}
	if i := cvec.FirstBitDiff(spec, warmSpec); i >= 0 {
		t.Fatalf("forward element %d: %v, want %v", i, spec[i], warmSpec[i])
	}
	if i := cvec.FirstBitDiff(back, warmBack); i >= 0 {
		t.Fatalf("inverse element %d: %v, want %v", i, back[i], warmBack[i])
	}
	if layout.NonTemporalAvailable() && calls == 0 {
		t.Fatal("no pre-fault was attempted on the fresh destinations")
	}
	if b := p.Observability().PrefaultBytes; b != 0 {
		t.Fatalf("%d pre-fault bytes accounted, every pre-fault failed", b)
	}
}

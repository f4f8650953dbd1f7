//go:build linux

package layout

import (
	"errors"
	"syscall"
	"testing"
	"unsafe"
)

// residentPages counts the pages of x's span that mincore reports resident.
func residentPages[E any](t *testing.T, x []E) (resident, pages int) {
	t.Helper()
	lo, hi := pageSpan(x)
	page := uintptr(syscall.Getpagesize())
	vec := make([]byte, (hi-lo)/page)
	if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, lo, hi-lo, uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
		t.Fatalf("mincore: %v", e)
	}
	for _, v := range vec {
		resident += int(v & 1)
	}
	return resident, len(vec)
}

// prefaultOrSkip pre-faults x, skipping the test on a kernel older than
// 5.14, which has no MADV_POPULATE_WRITE.
func prefaultOrSkip[E any](t *testing.T, x []E) {
	t.Helper()
	err := Prefault(x)
	if errors.Is(err, syscall.EINVAL) {
		t.Skip("kernel without MADV_POPULATE_WRITE (Linux < 5.14)")
	}
	if err != nil {
		t.Fatalf("Prefault: %v", err)
	}
}

// anonMapping maps n fresh bytes no one has touched.
func anonMapping(t *testing.T, n, prot int) []byte {
	t.Helper()
	mem, err := syscall.Mmap(-1, 0, n, prot, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	return mem
}

// A fresh 64 MiB allocation is address space the kernel has not backed
// yet: its first page reads cold, and after the pre-fault every page of it
// is resident.
func TestPrefaultFreshMake(t *testing.T) {
	x := make([]complex128, 64<<20/16)
	if !Cold(x) {
		// Go zeroes memory it hands out a second time at make time, which
		// faults it in: under -count > 1 this make reuses the last run's.
		if r, n := residentPages(t, x); r == n {
			t.Skip("the heap reused memory and zeroed it at make time")
		}
		t.Fatal("a fresh 64 MiB make reads warm")
	}
	prefaultOrSkip(t, x)
	if Cold(x) {
		t.Fatal("cold after Prefault")
	}
	if r, n := residentPages(t, x); r != n {
		t.Fatalf("%d of %d pages resident after Prefault", r, n)
	}
	if Cold(x[:0]) || Prefault(x[:0]) != nil {
		t.Fatal("an empty slice must read warm and pre-fault as a no-op")
	}
}

// The pre-fault changes no byte: pages written before it keep what was
// written, and the untouched ones read zero, as a fresh allocation does.
func TestPrefaultKeepsWrittenBytes(t *testing.T) {
	const size = 16 << 20
	page := syscall.Getpagesize()
	x := unsafe.Slice((*float64)(unsafe.Pointer(&anonMapping(t, size, syscall.PROT_READ|syscall.PROT_WRITE)[0])), size/8)
	perPage := page / 8
	written := func(i int) bool { return i/perPage%7 == 3 } // every seventh page
	for i := range x {
		if written(i) {
			x[i] = float64(i) + 0.5
		}
	}
	if !Cold(x) {
		t.Fatal("an untouched mapping reads warm")
	}
	prefaultOrSkip(t, x)
	for i := range x {
		want := 0.0
		if written(i) {
			want = float64(i) + 0.5
		}
		if x[i] != want {
			t.Fatalf("x[%d] = %v after Prefault, want %v", i, x[i], want)
		}
	}
	if r, n := residentPages(t, x); r != n {
		t.Fatalf("%d of %d pages resident after Prefault", r, n)
	}
}

// A mapping that cannot be written refuses the pre-fault with an error
// rather than a fault.
func TestPrefaultReadOnlyMappingFails(t *testing.T) {
	mem := anonMapping(t, 1<<20, syscall.PROT_READ)
	if err := Prefault(mem); err == nil {
		t.Fatal("Prefault of a PROT_READ mapping succeeded")
	}
}

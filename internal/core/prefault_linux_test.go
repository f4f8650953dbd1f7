//go:build linux

package core

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// freshComplex maps n complex128 no one has touched: a destination whose
// pages are all cold, as a fresh allocation's are.
func freshComplex(t *testing.T, n int) []complex128 {
	t.Helper()
	mem, err := syscall.Mmap(-1, 0, n*16, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	return unsafe.Slice((*complex128)(unsafe.Pointer(&mem[0])), n)
}

// prefaultPair builds the plan of dims under ablation a twice, once with the
// pre-fault disabled: the second is the oracle of the first's bits.
func prefaultPair(t *testing.T, a stagegraph.Ablation, real bool, dims ...int) (p, ref *Plan) {
	t.Helper()
	build := func(a stagegraph.Ablation) *Plan {
		defer stagegraph.SetAblation(a)()
		q, err := NewPlan(Config{}, real, dims...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(q.Close)
		return q
	}
	p = build(a)
	a.NoPrefault = true
	return p, build(a)
}

// A plan forced to stream pre-faults a cold destination once: the first
// transform into a fresh array records its len·16 bytes, a second into the
// same array none. The plan's work array is warmed by a first transform,
// so the deltas count the caller's array alone. Outputs are the bits of
// the same plan with the pre-fault disabled.
func TestPrefaultStreamingPlan(t *testing.T) {
	p, ref := prefaultPair(t, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, false, 32, 32, 32)
	n := p.Len()
	want := uint64(n * 16)
	if !layout.NonTemporalAvailable() {
		want = 0 // nothing streams, so nothing is pre-faulted
	}
	x := randVec(7, n)
	if err := p.Transform(make([]complex128, n), x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	bytes := func() uint64 { return p.Observability().PrefaultBytes }
	spec, back := freshComplex(t, n), freshComplex(t, n)
	for _, c := range []struct {
		name string
		run  func(dst []complex128, q *Plan) error
		dst  []complex128
		want uint64
	}{
		{"forward into a fresh dst", func(d []complex128, q *Plan) error { return q.Transform(d, x, fft1d.Forward) }, spec, want},
		{"forward into the same dst", func(d []complex128, q *Plan) error { return q.Transform(d, x, fft1d.Forward) }, spec, 0},
		{"inverse into a fresh dst", func(d []complex128, q *Plan) error { return q.Inverse(d, spec) }, back, want},
	} {
		before := bytes()
		if err := c.run(c.dst, p); err != nil {
			t.Fatal(err)
		}
		if got := bytes() - before; got != c.want {
			t.Errorf("%s: %d pre-fault bytes, want %d", c.name, got, c.want)
		}
		oracle := make([]complex128, n)
		if err := c.run(oracle, ref); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, c.dst, oracle)
	}
	if o := ref.Observability(); o.PrefaultBytes != 0 || o.PrefaultNs != 0 {
		t.Errorf("the plan without pre-fault accounted %d bytes, %d ns", o.PrefaultBytes, o.PrefaultNs)
	}
}

// A cached-store plan — the default 512², whose arrays fit the footprint
// rule — never pre-faults, even into fresh arrays.
func TestPrefaultSkipsCachedStores(t *testing.T) {
	p, ref := prefaultPair(t, stagegraph.Ablation{}, false, 512, 512)
	if p.NonTemporalStages() != 0 {
		t.Skip("512² streams on this host: its LLC is under 8 MiB")
	}
	x := randVec(8, p.Len())
	spec, back := freshComplex(t, p.Len()), freshComplex(t, p.Len())
	if err := p.Transform(spec, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(back, spec); err != nil {
		t.Fatal(err)
	}
	if o := p.Observability(); o.PrefaultBytes != 0 || o.PrefaultNs != 0 {
		t.Errorf("cached plan pre-faulted %d bytes in %d ns", o.PrefaultBytes, o.PrefaultNs)
	}
	oracle := make([]complex128, p.Len())
	if err := ref.Transform(oracle, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, spec, oracle)
	if err := ref.Inverse(oracle, spec); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, back, oracle)
}

// A real plan forced to stream pre-faults a fresh spectrum, which its
// forward's last stage streams into, but never a real destination: the
// pair-packed store is always cached. Outputs are the oracle's bits.
func TestPrefaultRealPlan(t *testing.T) {
	p, ref := prefaultPair(t, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, true, 16, 32, 32)
	x := randReal(9, p.Len())
	warm := make([]complex128, p.SpectrumLen())
	if err := p.ForwardReal(warm, x, 1); err != nil { // warms the scratch arrays
		t.Fatal(err)
	}
	if err := p.InverseReal(make([]float64, p.Len()), warm, 1); err != nil {
		t.Fatal(err)
	}
	before := p.Observability().PrefaultBytes
	spec := freshComplex(t, p.SpectrumLen())
	if err := p.ForwardReal(spec, x, 1); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(spec) * 16)
	if !layout.NonTemporalAvailable() {
		want = 0
	}
	if got := p.Observability().PrefaultBytes - before; got != want {
		t.Errorf("forward into a fresh spectrum: %d pre-fault bytes, want %d", got, want)
	}
	oracleSpec := make([]complex128, p.SpectrumLen())
	if err := ref.ForwardReal(oracleSpec, x, 1); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, spec, oracleSpec)
	back := freshComplex(t, p.Len()/2)
	backR := unsafe.Slice((*float64)(unsafe.Pointer(&back[0])), p.Len())
	before = p.Observability().PrefaultBytes
	if err := p.InverseReal(backR, spec, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Observability().PrefaultBytes - before; got != 0 {
		t.Errorf("inverse into a fresh real array: %d pre-fault bytes, want 0", got)
	}
	oracle := make([]float64, p.Len())
	if err := ref.InverseReal(oracle, spec, 1); err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if math.Float64bits(backR[i]) != math.Float64bits(oracle[i]) {
			t.Fatalf("inverse element %d: %v, want %v", i, backR[i], oracle[i])
		}
	}
}

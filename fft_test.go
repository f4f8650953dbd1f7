package repro

import (
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/spl"
)

// roundTrip holds Inverse∘Forward of h to the identity within tol and
// returns the input and its transform.
func roundTrip(t *testing.T, h complexHandle, seed int64, tol float64) (x, y []complex128) {
	t.Helper()
	x = cvec.Random(rand.New(rand.NewSource(seed)), h.Len())
	y, z := make([]complex128, h.Len()), make([]complex128, h.Len())
	if err := h.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	if err := h.Inverse(z, y); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(z), cvec.Vec(x)); d > tol {
		t.Fatalf("round trip diff %g", d)
	}
	return x, y
}

func TestPublicFFT3DRoundTrip(t *testing.T) {
	p, err := NewFFT3D(16, 16, 16, withLanes(2), WithBufferElems(512))
	if err != nil {
		t.Fatal(err)
	}
	if k, n, m := p.Dims(); k != 16 || n != 16 || m != 16 || p.Len() != 4096 {
		t.Fatal("Dims or Len wrong")
	}
	roundTrip(t, p, 1, 1e-9)
}

func TestPublicFFT2DRoundTrip(t *testing.T) {
	p, err := NewFFT2D(32, 64, WithBufferElems(512))
	if err != nil {
		t.Fatal(err)
	}
	x, y := roundTrip(t, p, 2, 1e-9)
	if err := p.InPlace(x); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(x), cvec.Vec(y)); d > 1e-9 {
		t.Fatalf("InPlace diff %g", d)
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []Option{
		WithBufferElems(0),
		WithCacheline(0),
		WithMachineDefaults("nonexistent machine"),
	}
	for i, o := range bad {
		if _, err := NewFFT3D(8, 8, 8, o); err == nil {
			t.Errorf("option %d accepted invalid value", i)
		}
	}
}

func TestWithMachineDefaults(t *testing.T) {
	p, err := NewFFT3D(32, 32, 32, WithMachineDefaults("Intel Kaby Lake 7700K"), WithBufferElems(1024))
	if err != nil {
		t.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(4)), p.Len())
	y := make([]complex128, p.Len())
	if err := p.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	want := spl.Eval(spl.DFT3D(32, 32, 32), x)
	if d := cvec.MaxDiff(cvec.Vec(y), cvec.Vec(want)); d > 1e-8 {
		t.Fatalf("machine-default plan wrong: %g", d)
	}
}

func TestMachinesListed(t *testing.T) {
	ms := Machines()
	if len(ms) != 5 {
		t.Fatalf("Machines() returned %d entries, want 5", len(ms))
	}
	var kaby *MachineInfo
	for i := range ms {
		if ms[i].Name == "Intel Kaby Lake 7700K" {
			kaby = &ms[i]
		}
	}
	if kaby == nil || kaby.StreamGBs != 40 || kaby.Threads != 8 {
		t.Fatalf("Kaby Lake entry wrong: %+v", kaby)
	}
}

func TestInvalidSizes(t *testing.T) {
	if _, err := NewFFT3D(0, 8, 8); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewFFT2D(-1, 8); err == nil {
		t.Error("accepted n=-1")
	}
	// Extents whose product wraps an int are refused before anything is
	// sized from that product.
	if _, err := NewFFT2D(1<<32, 1<<32); err == nil {
		t.Error("NewFFT2D accepted 2³²×2³²")
	}
	if _, err := NewFFT3D(1<<21, 1<<21, 1<<22); err == nil {
		t.Error("NewFFT3D accepted 2²¹×2²¹×2²²")
	}
	if _, err := NewRealFFT3D(1<<21, 1<<21, 1<<23); err == nil {
		t.Error("NewRealFFT3D accepted 2²¹×2²¹×2²³")
	}
	if _, err := NewRealFFT2D(1<<31, 1<<34); err == nil {
		t.Error("NewRealFFT2D accepted 2³¹×2³⁴")
	}
}

func TestForwardMany(t *testing.T) {
	p, err := NewFFT3D(8, 8, 8, WithBufferElems(128))
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	src := cvec.Random(rand.New(rand.NewSource(9)), count*p.Len())
	want := make([]complex128, len(src))
	for c := 0; c < count; c++ {
		if err := p.Forward(want[c*p.Len():(c+1)*p.Len()], src[c*p.Len():(c+1)*p.Len()]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]complex128, len(src))
	if err := p.ForwardMany(got, src, count); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-12 {
		t.Fatalf("ForwardMany diff %g", d)
	}
	if err := p.ForwardMany(got[:1], src, count); err == nil {
		t.Fatal("accepted bad lengths")
	}
}

// A count whose product with Len() wraps is refused, not run off the end of
// the slices: 512·(2⁵⁵+1) wraps to 512.
func TestForwardManyRefusesWrappingCount(t *testing.T) {
	p, err := NewFFT3D(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x, y := make([]complex128, p.Len()), make([]complex128, p.Len())
	if err := p.ForwardMany(y, x, 1<<55+1); err == nil {
		t.Fatal("accepted a count whose element total wraps")
	}
}

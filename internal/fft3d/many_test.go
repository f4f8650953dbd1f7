package fft3d

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
)

func TestTransformManyMatchesLoop(t *testing.T) {
	const k, n, m, count = 8, 8, 8, 4
	p, err := NewPlan(k, n, m, core.Config{BufferElems: 128})
	if err != nil {
		t.Fatal(err)
	}
	src := cvec.Random(rand.New(rand.NewSource(1)), count*p.Len())
	want := make([]complex128, len(src))
	for c := 0; c < count; c++ {
		if err := p.Transform(want[c*p.Len():(c+1)*p.Len()], src[c*p.Len():(c+1)*p.Len()], fft1d.Forward); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]complex128, len(src))
	if err := p.TransformMany(got, src, count, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > 1e-12 {
		t.Fatalf("TransformMany diff %g", d)
	}
}

func TestTransformManyValidation(t *testing.T) {
	p, err := NewPlan(4, 4, 4, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.TransformMany(make([]complex128, 64), make([]complex128, 64), 0, fft1d.Forward); err == nil {
		t.Error("accepted count=0")
	}
	if err := p.TransformMany(make([]complex128, 127), make([]complex128, 128), 2, fft1d.Forward); err == nil {
		t.Error("accepted bad lengths")
	}
}

func BenchmarkTransformMany(b *testing.B) {
	const k, n, m, count = 32, 32, 32, 4
	p, err := NewPlan(k, n, m, core.Config{BufferElems: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	src := cvec.Random(rand.New(rand.NewSource(1)), count*p.Len())
	dst := make([]complex128, len(src))
	b.SetBytes(int64(len(src) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.TransformMany(dst, src, count, fft1d.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

package repro_test

import (
	"fmt"
	"math"

	"repro"
)

// The basic forward/inverse cycle on a 3D cube.
func ExampleNewFFT3D() {
	plan, err := repro.NewFFT3D(16, 16, 16)
	if err != nil {
		panic(err)
	}
	src := make([]complex128, plan.Len())
	src[0] = 1 // a delta: its spectrum is all ones
	freq := make([]complex128, plan.Len())
	if err := plan.Forward(freq, src); err != nil {
		panic(err)
	}
	fmt.Println(freq[0], freq[plan.Len()-1])
	// Output: (1+0i) (1+0i)
}

// Configuring the paper's execution scheme explicitly.
func ExampleWithMachineDefaults() {
	plan, err := repro.NewFFT3D(64, 64, 64,
		repro.WithMachineDefaults("Intel Kaby Lake 7700K"))
	if err != nil {
		panic(err)
	}
	k, n, m := plan.Dims()
	fmt.Printf("%dx%dx%d ready\n", k, n, m)
	// Output: 64x64x64 ready
}

// A 1D transform recovering a pure tone's bin.
func ExampleNewFFT1D() {
	const n = 256
	plan, err := repro.NewFFT1D(n)
	if err != nil {
		panic(err)
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*5*float64(i)/n), 0)
	}
	spec := make([]complex128, n)
	if err := plan.Forward(spec, x); err != nil {
		panic(err)
	}
	best, mag := 0, 0.0
	for k := 0; k <= n/2; k++ {
		if a := math.Hypot(real(spec[k]), imag(spec[k])); a > mag {
			best, mag = k, a
		}
	}
	fmt.Println("peak bin:", best)
	// Output: peak bin: 5
}

// Real-input transforms produce the compact Hermitian half spectrum.
func ExampleNewRealFFT3D() {
	plan, err := repro.NewRealFFT3D(8, 8, 8)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.RealLen(), "reals →", plan.SpectrumLen(), "complex coefficients")
	// Output: 512 reals → 320 complex coefficients
}

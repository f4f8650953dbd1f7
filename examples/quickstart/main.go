// Quickstart: plan a 3D FFT, run a forward and inverse transform, and
// verify the round trip — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro"
)

func main() {
	const k, n, m = 64, 64, 64

	// A plan is reusable and holds all twiddle tables and pipeline
	// buffers. The default configuration runs one lane per core, each
	// streaming its share of every stage's blocks load → compute → store.
	plan, err := repro.NewFFT3D(k, n, m,
		repro.WithBufferElems(1<<14), // pipeline block size (one a lane)
	)
	if err != nil {
		log.Fatal(err)
	}

	// Random complex input, row-major k×n×m with x fastest.
	rng := rand.New(rand.NewSource(42))
	src := make([]complex128, plan.Len())
	for i := range src {
		src[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}

	freq := make([]complex128, plan.Len())
	start := time.Now()
	if err := plan.Forward(freq, src); err != nil {
		log.Fatal(err)
	}
	fwd := time.Since(start)

	back := make([]complex128, plan.Len())
	if err := plan.Inverse(back, freq); err != nil {
		log.Fatal(err)
	}

	// The inverse is normalized: Inverse(Forward(x)) == x.
	var maxErr float64
	for i := range src {
		if d := cabs(back[i] - src[i]); d > maxErr {
			maxErr = d
		}
	}

	// Parseval: energy in frequency domain = N × energy in time domain.
	var et, ef float64
	for i := range src {
		et += cabs2(src[i])
		ef += cabs2(freq[i])
	}

	elems := float64(plan.Len())
	gflops := 5 * elems * math.Log2(elems) / fwd.Seconds() / 1e9
	fmt.Printf("3D FFT %d×%d×%d (%d points)\n", k, n, m, plan.Len())
	fmt.Printf("forward:          %v (%.2f pseudo-Gflop/s)\n", fwd, gflops)
	fmt.Printf("round-trip error: %.2e\n", maxErr)
	fmt.Printf("Parseval ratio:   %.12f (want 1)\n", ef/(et*elems))
	if maxErr > 1e-9 {
		log.Fatal("round trip failed")
	}
	fmt.Println("OK")
}

func cabs(c complex128) float64  { return math.Hypot(real(c), imag(c)) }
func cabs2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

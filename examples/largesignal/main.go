// Largesignal: peak detection in the spectrum of a long 1D signal — a 4 MiB
// array, past L2 — with the public 1D plan, which runs the same Stockham
// planner at every size.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"repro"
)

func main() {
	const n = 1 << 18 // 262144 samples

	plan, err := repro.NewFFT1D(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1D FFT of %d samples\n", plan.Len())

	// Signal: three tones buried in noise.
	tones := []struct {
		bin int
		amp float64
	}{{1234, 1.0}, {54321, 0.7}, {100000, 0.4}}
	rng := rand.New(rand.NewSource(11))
	x := make([]complex128, n)
	for i := range x {
		v := 0.35 * (rng.Float64()*2 - 1) // noise floor
		for _, t := range tones {
			v += t.amp * math.Sin(2*math.Pi*float64(t.bin)*float64(i)/float64(n))
		}
		x[i] = complex(v, 0)
	}

	spec := make([]complex128, n)
	if err := plan.Forward(spec, x); err != nil {
		log.Fatal(err)
	}

	// Rank positive-frequency bins by magnitude.
	type peak struct {
		bin int
		mag float64
	}
	peaks := make([]peak, 0, n/2)
	for k := 1; k < n/2; k++ {
		peaks = append(peaks, peak{k, cabs(spec[k])})
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].mag > peaks[j].mag })

	fmt.Println("top spectral peaks:")
	found := map[int]bool{}
	for _, p := range peaks[:3] {
		fmt.Printf("  bin %6d  magnitude %9.1f\n", p.bin, p.mag)
		found[p.bin] = true
	}
	for _, t := range tones {
		if !found[t.bin] {
			log.Fatalf("tone at bin %d not among the top peaks", t.bin)
		}
	}
	fmt.Println("all three injected tones recovered — OK")
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

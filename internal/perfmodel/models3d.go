package perfmodel

import (
	"fmt"
	"math"
)

// DoubleBuf3D models the paper's pipelined 3D FFT on the model's machine
// with the given socket count (1 ≤ sockets ≤ machine sockets).
func (mo *Model) DoubleBuf3D(k, n, m, sockets int) Estimate {
	elems := k * n * m
	bytes := float64(elems) * 16 // one complex pass
	bw := mo.M.SocketStreamGBs() * float64(sockets) * 1e9
	link := mo.M.LinkGBs * 1e9

	bufElems := mo.M.DefaultBufferElems()
	iters := elems / sockets / max(bufElems, 1)

	// Compute: pc threads across the active sockets.
	cores := mo.computeCoresDoubleBuf() * sockets / mo.M.Sockets
	cGflops := mo.doubleBufGflops(max(cores, 1))
	flopsPerStage := 5 * float64(elems) * log2f(elems) / 3

	var stages []StageCost
	for st := 1; st <= 3; st++ {
		// Reads are always local and streamed; writes go through the
		// blocked rotation. On multi-socket runs stages 2 and 3 send
		// (sk-1)/sk of the writes across the link (Fig. 8).
		readSec := bytes / bw
		crossFrac := 0.0
		if sockets > 1 && st >= 2 {
			crossFrac = float64(sockets-1) / float64(sockets)
		}
		localWrite := bytes * (1 - crossFrac) / (bw * mo.RotateStoreEff)
		var linkSec float64
		if crossFrac > 0 && link > 0 {
			// Full-duplex pairwise links: each direction carries
			// cross/sockets of the bytes. Cross writes serialize
			// against the local writes rather than hiding under them —
			// the paper observes that "writing data over the
			// interconnect is expensive" and measures the penalty.
			linkSec = bytes * crossFrac / float64(sockets) / link
		}
		dataSec := readSec + localWrite + linkSec
		compSec := flopsPerStage / (cGflops * 1e9)
		f := stageFill(iters, st == 3)
		sec := max(dataSec, compSec) * f
		stages = append(stages, StageCost{
			Name: fmt.Sprintf("stage%d", st), DataSec: dataSec,
			LinkSec: linkSec, ComputeSec: compSec, FillFactor: f,
			Sec: sec, Overlapped: true,
		})
	}
	name := "doublebuf"
	if sockets > 1 {
		name = fmt.Sprintf("doublebuf-%ds", sockets)
	}
	return mo.finish(name, elems, 3, stages)
}

// Baseline3D models a non-overlapped pencil (MKL-class) or, on AMD
// machines for the FFTW-class, slab-pencil library.
func (mo *Model) Baseline3D(k, n, m int, lib Library, sockets int) Estimate {
	elems := k * n * m
	bytes := float64(elems) * 16
	bw := mo.M.SocketStreamGBs() * float64(sockets) * 1e9
	if sockets > 1 {
		bw *= mo.BaselineRemotePenalty
	}
	bonus := mo.PlanningBonus[lib]
	cores := mo.M.CoresPerSocket * sockets
	cGflops := mo.computeGflops(cores)
	totalFlops := 5 * float64(elems) * log2f(elems)

	slab := lib == LibFFTW && mo.M.Vendor == "amd" &&
		float64(n*m*16) <= float64(mo.M.LLC().SizeBytes)*4

	var stages []StageCost
	add := func(name string, eff float64, flopsFrac float64) {
		dataSec := 2 * bytes / (bw * min(1, eff*bonus))
		compSec := totalFlops * flopsFrac / (cGflops * 1e9)
		// Hardware prefetching overlaps compute with memory within a
		// stage even without software pipelining, so the stage costs
		// max(data, compute) — the baselines lose on traffic, not on a
		// total absence of overlap.
		stages = append(stages, StageCost{
			Name: name, DataSec: dataSec, ComputeSec: compSec,
			FillFactor: 1, Sec: max(dataSec, compSec),
		})
	}

	// Stage 1: contiguous rows, but temporal stores pay write-allocate
	// (amplification 1.5 ⇒ efficiency 2/3).
	const contiguousEff = 2.0 / 3.0
	if slab {
		// Slab-pencil: stages 1+2 fused in-cache, one round trip.
		add("slab12", contiguousEff, 2.0/3.0)
		add("pencil-z", mo.stridedEfficiency(k, n*m), 1.0/3.0)
	} else {
		add("rows", contiguousEff, 1.0/3.0)
		add("pencil-y", mo.stridedEfficiency(n, m), 1.0/3.0)
		add("pencil-z", mo.stridedEfficiency(k, n*m), 1.0/3.0)
	}
	return mo.finish(string(lib), elems, 3, stages)
}

// SocketSpeedup3D returns the modeled speedup of the paper's scheme when
// going from one socket to `sockets` at a fixed size (Fig. 11 bottom).
func (mo *Model) SocketSpeedup3D(k, n, m, sockets int) float64 {
	one := mo.DoubleBuf3D(k, n, m, 1)
	two := mo.DoubleBuf3D(k, n, m, sockets)
	return one.Seconds / two.Seconds
}

func log2f(n int) float64 { return math.Log2(float64(n)) }

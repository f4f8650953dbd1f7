package perfmodel

import "fmt"

// DoubleBuf2D models the paper's pipelined 2D FFT (Fig. 9). The 2D case
// exposes two effects the 3D case avoids (§V):
//
//   - small matrices give the pipeline few iterations (iter = nm/b), so the
//     prologue/epilogue fill cost is visible;
//   - large row lengths m shrink the transpose panel to b/m rows, and the
//     stage-2 store touches m/μ distinct output pages per panel — TLB
//     misses can no longer be amortized, modeled by the r/(r+TLBRowCost)
//     efficiency term.
func (mo *Model) DoubleBuf2D(n, m int) Estimate {
	elems := n * m
	bytes := float64(elems) * 16
	bw := mo.M.StreamGBs * 1e9

	bufElems := mo.M.DefaultBufferElems()
	iters := max(elems/max(bufElems, 1), 1)

	cores := mo.computeCoresDoubleBuf()
	cGflops := mo.doubleBufGflops(max(cores, 1))
	flopsPerStage := 5 * float64(elems) * log2f(elems) / 2

	// Transpose-panel rows available per block; both stages store with a
	// panel of this shape.
	rowsPerPanel := float64(max(bufElems/m, 1))
	tlbEff := rowsPerPanel / (rowsPerPanel + mo.TLBRowCost)

	var stages []StageCost
	for st := 1; st <= 2; st++ {
		readSec := bytes / bw
		writeSec := bytes / (bw * mo.RotateStoreEff * tlbEff)
		dataSec := readSec + writeSec
		compSec := flopsPerStage / (cGflops * 1e9)
		f := stageFill(iters, st == 2)
		sec := max(dataSec, compSec) * f
		stages = append(stages, StageCost{
			Name: fmt.Sprintf("stage%d", st), DataSec: dataSec,
			ComputeSec: compSec, FillFactor: f, Sec: sec, Overlapped: true,
		})
	}
	return mo.finish("doublebuf", elems, 2, stages)
}

// Baseline2D models a non-overlapped pencil library on the 2D transform.
func (mo *Model) Baseline2D(n, m int, lib Library) Estimate {
	elems := n * m
	bytes := float64(elems) * 16
	bw := mo.M.StreamGBs * 1e9
	bonus := mo.PlanningBonus[lib]
	cGflops := mo.computeGflops(mo.M.CoresPerSocket * mo.M.Sockets)
	totalFlops := 5 * float64(elems) * log2f(elems)

	const contiguousEff = 2.0 / 3.0
	mk := func(name string, eff, flopsFrac float64) StageCost {
		dataSec := 2 * bytes / (bw * min(1, eff*bonus))
		compSec := totalFlops * flopsFrac / (cGflops * 1e9)
		return StageCost{Name: name, DataSec: dataSec, ComputeSec: compSec,
			FillFactor: 1, Sec: max(dataSec, compSec)}
	}
	stages := []StageCost{
		mk("rows", contiguousEff, 0.5),
		mk("pencil-cols", mo.stridedEfficiency(n, m), 0.5),
	}
	return mo.finish(string(lib), elems, 2, stages)
}

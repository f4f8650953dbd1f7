package cachesim

// BufferedPencilSweep replays the blocked pencil access of a planned
// library (MKL/FFTW class) in place on a rows×cols row-major matrix: μ
// adjacent pencils are gathered and scattered together at cacheline
// granularity, so lines are consumed fully and the raw sub-line
// amplification of a one-pencil sweep (μ = 1, the paper's §II-D bandwidth
// pathology) disappears. What remains is the write-allocate traffic and —
// for pencils longer than the TLB reach at page-or-larger strides —
// page-walk overhead. This is the pattern the performance model measures
// for the baseline libraries.
func BufferedPencilSweep(h *Hierarchy, rows, cols, mu, elemBytes int) {
	stride := uint64(cols * elemBytes)
	blockBytes := mu * elemBytes
	for g := 0; g < cols/mu; g++ {
		base := uint64(g * blockBytes)
		for r := 0; r < rows; r++ {
			h.Access(base+uint64(r)*stride, blockBytes, Read)
		}
		for r := 0; r < rows; r++ {
			h.Access(base+uint64(r)*stride, blockBytes, Write)
		}
	}
	h.Flush()
}

package kernels

// Sink is a folded store: the destination the last Stockham pass of a batch
// writes its outputs to, through a blocked rotation with streaming stores,
// instead of into the batch's buffer — the store half of one lane's soft
// DMA (stagegraph.Stage.FoldStore). Pencil c of the batch sends its
// element e — the index the buffered pass would write it at in the pencil —
// to
//
//	Dst[Off + c·Pitch + (e/BlockLen)·JStride + e%BlockLen]
//
// which is what layout.GatherBlocksNT writes for the same block. A non-zero
// Scale multiplies every output on its way out with GatherBlocksNT's
// operation sequence, so the destination's bits do not depend on which of
// the two wrote it.
type Sink struct {
	Dst      []complex128
	Off      int     // element offset of pencil 0's block 0
	Pitch    int     // elements between consecutive pencils' block 0
	JStride  int     // elements between a pencil's consecutive blocks
	BlockLen int     // elements a block
	Scale    float64 // 0: none
}

// sinkLine is the streaming stores' line: every block must be whole lines on
// line boundaries, for the reason layout.ScatterBlocksNT gives.
const sinkLine = 64

// Takes reports whether the sink's geometry suits a radix-r (m, s) last
// pass: a radix-8 or radix-16 stage at m = 1, either s a multiple of
// BlockLen (strided) or s = 1 with BlockLen dividing r (pairs), and blocks,
// block stride and pencil pitch of whole lines. It reads neither Dst nor
// Off, nor whether this build has the codelets.
func (sk *Sink) Takes(r, m, s int) bool {
	bl := sk.BlockLen
	return (r == 8 || r == 16) && m == 1 && bl >= 1 && sk.Pitch >= 0 && sk.JStride >= 0 &&
		bl*16%sinkLine == 0 && sk.JStride*16%sinkLine == 0 && sk.Pitch*16%sinkLine == 0 &&
		(s%bl == 0 || s == 1 && r%bl == 0)
}

// Fits reports whether the sink takes a batch of `pencils` radix-r (m, s)
// last passes: its geometry does (Takes), this build has the stage's sink
// codelet, the first block starts a cache line and every block lies inside
// Dst. When it is false, SinkStep writes nothing.
func (sk *Sink) Fits(r, m, s, pencils int) bool {
	if !sk.Takes(r, m, s) || !sinkTier(r, m, s) || pencils < 1 || sk.Off < 0 {
		return false
	}
	last := sk.Off + (pencils-1)*sk.Pitch + (r*s/sk.BlockLen-1)*sk.JStride + sk.BlockLen
	return last <= len(sk.Dst) && lineAligned(sk.Dst, sk.Off)
}

// SinkStep is BatchStep for the last pass of a chain whose outputs go to
// sink sk instead of dst: it runs the radix-r (m, s) stage on `pencils`
// pencils of stride elements of src, advancing the prefetch cursor pf as
// BatchStep does, and reports true — or, when !sk.Fits(r, m, s, pencils),
// writes nothing and reports false. It does not fence: the caller orders the
// streaming stores (layout.StoreFence) before it hands the destination on.
func SinkStep(r int, src []complex128, pencils, stride, m, s, sign int, tw *StageTwiddles, pf *Prefetch, sk *Sink) bool {
	if stride != r*m*s || len(src) < pencils*stride || !sk.Fits(r, m, s, pencils) || !sinkTwiddles(r, tw) {
		return false
	}
	for c := 0; c < pencils; c++ {
		sinkPencil(r, src[c*stride:(c+1)*stride], s, sign, tw, pf, sk, sk.Off+c*sk.Pitch)
	}
	return true
}

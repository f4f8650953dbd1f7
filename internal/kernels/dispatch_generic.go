//go:build !amd64 || purego

package kernels

// Tier reports which butterfly implementation the dispatched entry
// points select. On this build only the pure-Go tier exists.
func Tier() string { return "generic" }

// SetForceGeneric is a no-op on builds without an accelerated tier; it
// exists so tests and benchmarks compile identically everywhere.
func SetForceGeneric(bool) {}

// Radix4Step performs one Stockham DIF radix-4 stage; see
// Radix4StepGeneric for the contract.
func Radix4Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	Radix4StepGeneric(dst, src, m, s, sign, tw)
}

// Radix8Step performs one Stockham DIF radix-8 stage; see
// Radix8StepGeneric for the contract.
func Radix8Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	Radix8StepGeneric(dst, src, m, s, sign, tw)
}

// Radix16Step performs one fused radix-16 stage (two radix-4 rank stages in
// registers); see Radix16StepGeneric for the contract.
func Radix16Step(dst, src []complex128, m, s, sign int, tw StageTwiddles) {
	Radix16StepGeneric(dst, src, m, s, sign, tw)
}

// The pure-Go tier has no codelets: it ignores the prefetch cursor, and no
// stage advances one.
func radix4Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, _ *Prefetch) {
	Radix4StepGeneric(dst, src, m, s, sign, *tw)
}

func radix8Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, _ *Prefetch) {
	Radix8StepGeneric(dst, src, m, s, sign, *tw)
}

func radix16Step(dst, src []complex128, m, s, sign int, tw *StageTwiddles, _ *Prefetch) {
	Radix16StepGeneric(dst, src, m, s, sign, *tw)
}

// Bodies reports 0: no stage of this build runs a codelet.
func Bodies(r, m, s int) int { return 0 }

// Radix4FoldLeg computes one leg of the trailing trivial-twiddle radix-4
// butterfly; see Radix4FoldLegGeneric for the contract.
func Radix4FoldLeg(dst, z0, z1, z2, z3 []complex128, leg, sign int) {
	Radix4FoldLegGeneric(dst, z0, z1, z2, z3, leg, sign)
}

// Radix4FoldScatter and Radix4FoldScatterNT have no accelerated
// implementation on this build; they always report false so callers take
// the scratch-fold path.
func Radix4FoldScatter(dst, z0, z1, z2, z3 []complex128, blocks, blockLen, d0, stride, leg, sign int, scale float64) bool {
	return false
}

func Radix4FoldScatterNT(dst, z0, z1, z2, z3 []complex128, blocks, blockLen, d0, stride, leg, sign int, scale float64) bool {
	return false
}

// No stage of this build has a sink codelet, so Sink.Fits is always false
// and nothing reaches sinkPencil.
func sinkTier(r, m, s int) bool { return false }

func lineAligned(dst []complex128, off int) bool { return false }

func sinkTwiddles(r int, tw *StageTwiddles) bool { return false }

func sinkPencil(r int, src []complex128, s, sign int, tw *StageTwiddles, pf *Prefetch, sk *Sink, off int) {
	panic("kernels: no sink codelet on this build")
}

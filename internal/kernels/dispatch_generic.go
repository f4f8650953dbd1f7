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

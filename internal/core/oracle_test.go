package core_test

import (
	"testing"

	"repro/internal/core/coretest"
)

// TestOracle runs the differential oracle whole: every shape × path ×
// direction of coretest's table, on its committed seeds and a fresh one.
func TestOracle(t *testing.T) { coretest.Oracle(t) }

// The rank-free tables of the plan checks that are not differential, whole.

func TestValidation(t *testing.T) {
	coretest.Validation(t)
	coretest.InverseValidation(t)
	coretest.ManyValidation(t)
}

func TestStageIters(t *testing.T)                   { coretest.StageIters(t) }
func TestDoubleBufScheduleTrace(t *testing.T)       { coretest.ScheduleTrace(t) }
func TestFusionStatsSteps(t *testing.T)             { coretest.FusionStatsSteps(t) }
func TestDefaultMuFollowsMachineModel(t *testing.T) { coretest.DefaultMu(t) }
func TestStorePolicyWiring(t *testing.T)            { coretest.StorePolicyWiring(t) }

// Each test below runs the slice of a table that replaced the per-rank test
// of its name; internal/fft3d's tests run the rank-3 slices.

func TestValidation2D(t *testing.T) {
	coretest.Validation(t, 2)
	coretest.InverseValidation(t, 2)
	coretest.ManyValidation(t, 2)
}

// A lane runs the paper's Table II with a one-block buffer: each block's
// load, compute and store in turn, no step overlapping the next.
func TestDoubleBufScheduleIsTableII(t *testing.T)     { coretest.ScheduleTrace(t, 2) }
func TestFusionStatsSteps2D(t *testing.T)             { coretest.FusionStatsSteps(t, 2) }
func TestDefaultMuFollowsMachineModel2D(t *testing.T) { coretest.DefaultMu(t, 2) }
func TestStorePolicyWiring2D(t *testing.T)            { coretest.StorePolicyWiring(t, 2) }

var (
	complex2D = coretest.Rank(false, 2)
	real1D    = coretest.Rank(true, 1)
	real2D    = coretest.Rank(true, 2)
	real3D    = coretest.Rank(true, 3)
)

func TestReferenceMatchesSPL2D(t *testing.T) { coretest.Slice(t, complex2D, "default") }
func TestPlan2DMatchesSPL(t *testing.T) {
	coretest.Slice(t, complex2D, "lanes1", "lanes2", "lanes3", "workers2x2", "workers3x3", "workers2x4")
}
func TestDoubleBufInverse(t *testing.T) { coretest.Slice(t, complex2D, "lanes2", "workers2x2") }
func TestRoundTripThroughDoubleBuf(t *testing.T) {
	coretest.Slice(t, coretest.Named("64x64"), "lanes2", "workers2x2")
}
func TestPlan2DMatchesSPLLarger(t *testing.T) {
	coretest.Slice(t, coretest.Named("128x256-b4096"), "lanes2", "workers2x2")
}
func TestPlan2DRoundTrip(t *testing.T) { coretest.Slice(t, complex2D, "inplace") }
func TestInPlace2D(t *testing.T)       { coretest.Slice(t, complex2D, "inplace") }
func TestPlan3DRoundTrip(t *testing.T) { coretest.Slice(t, coretest.Rank(false, 3), "inplace") }
func TestFusionEquivalence2D(t *testing.T) {
	coretest.Slice(t, complex2D, "unfused", "unfused/workers1x3", "unfused/workers2x3")
}
func TestNonTemporalTransformMatchesSPL(t *testing.T)   { coretest.Slice(t, complex2D, "streaming") }
func TestDoubleBufBufferSmallerThanRow(t *testing.T)    { coretest.Slice(t, coretest.Named("8x256-b64")) }
func TestForward1DMatchesNaive(t *testing.T)            { coretest.Slice(t, real1D, "default") }
func TestRoundTrip1D(t *testing.T)                      { coretest.Slice(t, real1D, "default") }
func TestRoundTrip1DBatch(t *testing.T)                 { coretest.Slice(t, real1D, "many") }
func TestForwardBatch1DMatchesNaive(t *testing.T)       { coretest.Slice(t, real1D, "many") }
func TestRoundTrip2D(t *testing.T)                      { coretest.Slice(t, real2D, "default", "lanes2", "workers2x2") }
func TestRoundTrip3D(t *testing.T)                      { coretest.Slice(t, real3D, "default", "lanes2", "workers2x2") }
func TestForward2DMatchesComplexReference(t *testing.T) { coretest.Slice(t, real2D, "padded") }
func TestForward3DMatchesComplexReference(t *testing.T) { coretest.Slice(t, real3D, "padded") }
func TestSplitDCIsRankFree(t *testing.T)                { coretest.Slice(t, real2D, "unitaxis") }

func TestRandomShapesAgainstPaddedComplexOracle(t *testing.T) {
	coretest.Slice(t, coretest.IsReal, "padded")
}

func TestFoldedRealStagesMatchOracle(t *testing.T) {
	coretest.Slice(t, coretest.Named("r16x32", "r16x32x64"), "default", "nofold")
}

func TestInverseBitwiseEqualsTransformThenScale2D(t *testing.T) {
	coretest.Slice(t, coretest.ScalesInverse(2),
		"default", "unfused", "nofold", "mu4/radix8", "streaming", "lanes2", "workers2x2")
}

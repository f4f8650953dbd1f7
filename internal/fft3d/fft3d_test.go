package fft3d_test

import (
	"testing"

	"repro/internal/core/coretest"
)

// Each test runs the rank-3 slice of a coretest table that replaced the test
// of its name; internal/core runs every table whole.

var complex3D = coretest.Rank(false, 3)

// nonCubic selects the complex k×n×m shapes whose extents are not all equal,
// as the paper's Fig. 1 sweeps them.
func nonCubic(s coretest.Shape) bool {
	return complex3D(s) && (s.Dims[0] != s.Dims[1] || s.Dims[1] != s.Dims[2])
}

// First, so the draw of every rank-3 reference holds spl to it here.
func TestReferenceMatchesSPL(t *testing.T) { coretest.Slice(t, complex3D, "default") }
func TestPlan3DMatchesSPL(t *testing.T) {
	coretest.Slice(t, complex3D, "lanes1", "lanes2", "lanes3", "workers2x2", "workers3x3", "workers2x4")
}
func TestDoubleBufInverseAndRoundTrip(t *testing.T) {
	coretest.Slice(t, complex3D, "default", "lanes2", "workers2x2")
}
func TestInPlaceAllStrategies(t *testing.T)   { coretest.Slice(t, complex3D, "inplace") }
func TestNonCubicSizes(t *testing.T)          { coretest.Slice(t, nonCubic, "lanes2", "workers2x2") }
func TestStageIters(t *testing.T)             { coretest.StageIters(t, 3) }
func TestDoubleBufScheduleTrace(t *testing.T) { coretest.ScheduleTrace(t, 3) }
func TestValidation(t *testing.T)             { coretest.Validation(t, 3) }
func TestDoubleBufLinearity(t *testing.T)     { coretest.Slice(t, complex3D, "many", "serve") }
func TestFusionEquivalence(t *testing.T) {
	coretest.Slice(t, complex3D, "unfused", "unfused/workers1x3", "unfused/workers2x3")
}
func TestFusionStatsSteps(t *testing.T)             { coretest.FusionStatsSteps(t, 3) }
func TestInverseRejectsBadLengths(t *testing.T)     { coretest.InverseValidation(t, 3) }
func TestTransformManyMatchesLoop(t *testing.T)     { coretest.Slice(t, complex3D, "many") }
func TestTransformManyValidation(t *testing.T)      { coretest.ManyValidation(t, 3) }
func TestDefaultMuFollowsMachineModel(t *testing.T) { coretest.DefaultMu(t, 3) }

func TestInverseBitwiseEqualsTransformThenScale(t *testing.T) {
	coretest.Slice(t, coretest.ScalesInverse(3),
		"default", "unfused", "nofold", "mu4/radix8", "streaming", "lanes2", "workers2x2")
}

// The wiring half runs the store-policy table; the correctness half is the
// oracle's forced cached and forced streaming rows.
func TestStorePolicyWiringAndCorrectness(t *testing.T) {
	coretest.StorePolicyWiring(t, 3)
	coretest.Slice(t, complex3D, "regular", "streaming")
}

package serve

import (
	"context"
	"testing"
)

// A warm complex rank-1 request allocates nothing anywhere on the path:
// the item is recycled, the executor reuses its batch slice, the plan cache
// hit returns the entry's one release func, and the transform draws scratch
// from the executor's arena. AllocsPerRun counts the whole process, so the
// executor goroutines are covered too. The context is
// uncancellable and the tracer off — the served configuration the ruler's
// serve1d workload runs.
func TestWarmRank1DoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race (instrumentation allocates; sync.Pool drops items at random)")
	}
	const n = 4096
	s := New(Options{Config: smallCfg()})
	defer shutdownOrFail(t, s)
	src, dst := testVec(n, 1), make([]complex128, n)
	ctx := context.Background()
	do := func() {
		for _, inverse := range []bool{false, true} {
			if err := s.Do(ctx, Request{Rank: 1, Dims: [3]int{n}, Inverse: inverse, Src: src, Dst: dst}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		do() // plan build, arena growth, pool fills; id&7 latency samples included
	}
	if allocs := testing.AllocsPerRun(200, do); allocs != 0 {
		t.Errorf("%v allocs per warm rank-1 Do pair, want 0", allocs)
	}
}

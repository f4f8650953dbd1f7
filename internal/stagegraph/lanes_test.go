package stagegraph

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kernels"
	"repro/internal/trace"
)

// A lane reuses its one buffer block after block: every block the store
// hook receives must still carry its own iteration's sentinel, which a
// later block's load, or another lane's, would have overwritten.
func TestStoreLoadOrderingOnSharedHalf(t *testing.T) {
	const iters, b = 12, 64
	src := make([]complex128, iters*b)
	for i := range src {
		src[i] = complex(float64(i/b), 0)
	}
	var violations atomic.Int64
	stages := []Stage{{
		Name: "sentinel", Iters: iters, Units: 1, UnitLen: b,
		Src:     Endpoint{C: src},
		Compute: func(*Buffers, *kernels.Arena, []complex128, int) {},
		Dst: Endpoint{WriteC: func(off, _ int, run []complex128) {
			for _, v := range run {
				if v != complex(float64(off/b), 0) {
					violations.Add(1)
				}
			}
		}},
		Rot: Rotation{Blocks: b, BlockLen: 1, JStride: 1, Map: func(g, j int) int { return g*b + j }},
	}}
	for lanes := 1; lanes <= 3; lanes++ {
		if err := runOnce(lanes, nil, stages, nil); err != nil {
			t.Fatal(err)
		}
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d elements stored from another block", v)
	}
}

// oneStage scales n = iters·b elements by 2 through a one-stage graph and
// reports whether every element arrived exactly once.
func oneStage(lanes, iters, b int) bool {
	src := make([]complex128, iters*b)
	for i := range src {
		src[i] = complex(float64(i), 1)
	}
	dst := make([]complex128, iters*b)
	stages := chainGraph(src, nil, dst, iters, 1, b, 2)
	if err := runOnce(lanes, nil, stages, nil); err != nil {
		return false
	}
	for i := range dst {
		if dst[i] != 2*src[i] {
			return false
		}
	}
	return true
}

// Property: for any iteration count and lane count, the pipeline moves and
// transforms every element exactly once.
func TestQuickPipelineCompleteness(t *testing.T) {
	f := func(rawIters, rawLanes uint8) bool {
		return oneStage(int(rawLanes)%4+1, int(rawIters)%12+1, 48)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// laneEvents returns each lane's events in the order they started.
func laneEvents(tr *trace.Recorder, lanes int) [][]trace.Event {
	by := make([][]trace.Event, lanes)
	for _, e := range tr.Events() {
		by[e.Lane] = append(by[e.Lane], e)
	}
	return by
}

// A one-stage graph runs the paper's Table II on every lane with a
// one-block buffer: each iteration loaded, computed and stored once, in
// order, by the lane whose share it is.
func TestTableIISchedule(t *testing.T) {
	for _, iters := range []int{1, 2, 3, 4, 9} {
		for lanes := 1; lanes <= 3; lanes++ {
			tr := trace.New()
			runChain(t, 1, iters, lanes, tr)
			if err := CheckLanes(tr, []int{iters}, lanes); err != nil {
				t.Fatalf("iters=%d lanes=%d: %v", iters, lanes, err)
			}
		}
	}
}

// A lane's pipeline is one block deep: its prologue is the load of its
// first block, its steady state each block's load, compute and store in
// turn, none starting before the one before it ends, and its epilogue the
// store of its last block.
func TestPrologueSteadyEpilogueShape(t *testing.T) {
	const iters = 6
	for lanes := 1; lanes <= 2; lanes++ {
		tr := trace.New()
		runChain(t, 1, iters, lanes, tr)
		for l, evs := range laneEvents(tr, lanes) {
			lo, hi := Partition(iters, l, lanes)
			if len(evs) != 3*(hi-lo) {
				t.Fatalf("lanes=%d lane %d: %d events, want %d", lanes, l, len(evs), 3*(hi-lo))
			}
			for i, e := range evs {
				if want := trace.Op(i % 3); e.Op != want || e.Iter != lo+i/3 {
					t.Fatalf("lanes=%d lane %d event %d: %v of iter %d, want %v of iter %d",
						lanes, l, i, e.Op, e.Iter, want, lo+i/3)
				}
				if i > 0 && e.Start.Before(evs[i-1].End) {
					t.Fatalf("lanes=%d lane %d: %v of iter %d starts before the %v before it ends",
						lanes, l, e.Op, e.Iter, evs[i-1].Op)
				}
			}
		}
	}
}

// At a stage boundary the lanes drain: every op of stage k ends before any
// op of stage k+1 starts, on whichever lanes they run — no overlap. The
// name is the fused step schedule's, which overlapped the last store of a
// stage with the first load of the next; the stage barrier that replaced
// it orders them, and this test checks that order.
func TestFusedBoundaryOverlap(t *testing.T) {
	const stagesN, iters = 3, 5
	for lanes := 1; lanes <= 3; lanes++ {
		tr := trace.New()
		runChain(t, stagesN, iters, lanes, tr)
		end := make([]time.Time, stagesN)
		for _, e := range tr.Events() {
			if e.End.After(end[e.Stage]) {
				end[e.Stage] = e.End
			}
		}
		for _, e := range tr.Events() {
			if e.Stage > 0 && e.Start.Before(end[e.Stage-1]) {
				t.Fatalf("lanes=%d: %v of stage %d iter %d on lane %d starts before stage %d ends",
					lanes, e.Op, e.Stage, e.Iter, e.Lane, e.Stage-1)
			}
		}
	}
}

// Property: the executor hands each lane the contiguous, whole-block share
// of a stage's iterations that Partition gives it, for any iteration and
// lane count.
func TestQuickPartitionBlocksAligned(t *testing.T) {
	f := func(rawIters, rawLanes uint8) bool {
		iters, lanes := int(rawIters)%12+1, int(rawLanes)%4+1
		const b = 16
		src := make([]complex128, iters*b)
		tr := trace.New()
		if err := runOnce(lanes, nil, chainGraph(src, nil, make([]complex128, iters*b), iters, 1, b, 2), tr); err != nil {
			return false
		}
		for l, evs := range laneEvents(tr, lanes) {
			lo, hi := Partition(iters, l, lanes)
			next := lo
			for _, e := range evs {
				if e.Op == trace.Compute {
					if e.Iter != next {
						return false
					}
					next++
				}
			}
			if next != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// synth builds a recorder holding a perfect lane schedule of a graph with
// the given per-stage iteration counts on the given number of lanes, each
// op lasting dur and each stage starting after the last ends.
func synth(iters []int, lanes int, dur time.Duration) *trace.Recorder {
	r := trace.New()
	t := time.Now()
	for s, n := range iters {
		end := t
		for l := 0; l < lanes; l++ {
			at := t
			lo, hi := Partition(n, l, lanes)
			for i := lo; i < hi; i++ {
				for _, op := range []trace.Op{trace.Load, trace.Compute, trace.Store} {
					r.Emit(trace.Event{Op: op, Stage: s, Iter: i, Lane: l, Start: at, End: at.Add(dur)})
					at = at.Add(dur)
				}
			}
			if at.After(end) {
				end = at
			}
		}
		t = end.Add(dur)
	}
	return r
}

// A lane's schedule is Table II with a one-block buffer, so CheckLanes
// keeps the Table II checker's tests.
func TestCheckTableIIAcceptsValidSchedule(t *testing.T) {
	for _, iters := range [][]int{{1}, {2}, {7}, {3, 1, 4}, {9, 9}} {
		for lanes := 1; lanes <= 3; lanes++ {
			if err := CheckLanes(synth(iters, lanes, time.Millisecond), iters, lanes); err != nil {
				t.Errorf("iters=%v lanes=%d: %v", iters, lanes, err)
			}
		}
	}
}

// The checker refuses a schedule that breaks each of its rules.
func TestCheckTableIIRejectsViolations(t *testing.T) {
	iters := []int{4, 4}
	good := synth(iters, 2, time.Millisecond).Events()
	edit := func(f func(evs []trace.Event) []trace.Event) *trace.Recorder {
		r := trace.New()
		for _, e := range f(append([]trace.Event(nil), good...)) {
			r.Emit(e)
		}
		return r
	}
	for name, r := range map[string]*trace.Recorder{
		"missing compute": edit(func(evs []trace.Event) []trace.Event {
			return slices.DeleteFunc(evs, func(e trace.Event) bool { return e.Op == trace.Compute && e.Stage == 1 && e.Iter == 2 })
		}),
		"stored twice": edit(func(evs []trace.Event) []trace.Event {
			e := evs[len(evs)-1]
			e.Start, e.End = e.End, e.End.Add(time.Millisecond)
			return append(evs, e)
		}),
		"wrong lane": edit(func(evs []trace.Event) []trace.Event {
			for i := range evs {
				if evs[i].Stage == 0 && evs[i].Iter == 0 {
					evs[i].Lane = 1
				}
			}
			return evs
		}),
		"compute before load": edit(func(evs []trace.Event) []trace.Event {
			for i := range evs {
				if evs[i].Stage == 0 && evs[i].Iter == 1 && evs[i].Op != trace.Store {
					evs[i].Op = 1 - evs[i].Op
				}
			}
			return evs
		}),
		"stage overlap": edit(func(evs []trace.Event) []trace.Event {
			for i := range evs {
				if evs[i].Stage == 1 && evs[i].Iter == 0 && evs[i].Op == trace.Load {
					evs[i].Start = evs[i].Start.Add(-4 * time.Millisecond)
				}
			}
			return evs
		}),
		"stage out of range": edit(func(evs []trace.Event) []trace.Event {
			return append(evs, trace.Event{Op: trace.Load, Stage: 2, Lane: 0, Start: evs[len(evs)-1].End})
		}),
	} {
		if err := CheckLanes(r, iters, 2); err == nil {
			t.Errorf("%s: violation not detected", name)
		}
	}
}

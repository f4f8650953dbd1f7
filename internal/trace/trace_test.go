package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// synth builds a recorder holding a perfect Table II schedule for iters
// iterations, with each op lasting dur.
func synth(iters int, dur time.Duration) *Recorder {
	r := New()
	base := time.Now()
	at := func(step int) time.Time { return base.Add(time.Duration(step) * 10 * dur) }
	for s := 0; s <= iters+1; s++ {
		if si := s - 2; si >= 0 && si < iters {
			r.Emit(Event{Op: Store, Step: s, Iter: si, Buf: si % 2, Role: "data",
				Start: at(s), End: at(s).Add(dur)})
		}
		if s < iters {
			r.Emit(Event{Op: Load, Step: s, Iter: s, Buf: s % 2, Role: "data",
				Start: at(s).Add(dur), End: at(s).Add(2 * dur)})
		}
		if ci := s - 1; ci >= 0 && ci < iters {
			r.Emit(Event{Op: Compute, Step: s, Iter: ci, Buf: ci % 2, Role: "compute",
				Start: at(s), End: at(s).Add(2 * dur)})
		}
	}
	return r
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Op: Load})
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	if r.OverlapFraction() != 0 {
		t.Fatal("nil recorder overlap should be 0")
	}
}

func TestEventsSortedByStart(t *testing.T) {
	r := New()
	base := time.Now()
	r.Emit(Event{Op: Store, Start: base.Add(2 * time.Millisecond)})
	r.Emit(Event{Op: Load, Start: base})
	r.Emit(Event{Op: Compute, Start: base.Add(time.Millisecond)})
	evs := r.Events()
	if evs[0].Op != Load || evs[1].Op != Compute || evs[2].Op != Store {
		t.Fatalf("events not sorted: %v", evs)
	}
}

// Table II is the one-stage case of the stage-graph schedule.
func TestCheckTableIIAcceptsValidSchedule(t *testing.T) {
	for _, iters := range []int{1, 2, 3, 7} {
		if err := synth(iters, time.Millisecond).CheckStageGraph([]int{iters}, true); err != nil {
			t.Errorf("iters=%d: %v", iters, err)
		}
	}
}

func TestCheckTableIIRejectsViolations(t *testing.T) {
	// Missing load.
	r := synth(3, time.Millisecond)
	bad := New()
	for _, e := range r.Events() {
		if e.Op == Load && e.Iter == 1 {
			continue
		}
		bad.Emit(e)
	}
	if err := bad.CheckStageGraph([]int{3}, true); err == nil || !strings.Contains(err.Error(), "missing load") {
		t.Errorf("missing load not detected: %v", err)
	}

	// Compute on the wrong buffer half.
	bad2 := New()
	for _, e := range r.Events() {
		if e.Op == Compute && e.Iter == 1 {
			e.Buf = 0 // should be 1
		}
		bad2.Emit(e)
	}
	if err := bad2.CheckStageGraph([]int{3}, true); err == nil {
		t.Error("wrong compute buffer not detected")
	}

	// Store of the wrong iteration.
	bad3 := New()
	for _, e := range r.Events() {
		if e.Op == Store && e.Iter == 0 {
			e.Iter = 1
			e.Buf = 1
		}
		bad3.Emit(e)
	}
	if err := bad3.CheckStageGraph([]int{3}, true); err == nil {
		t.Error("wrong store iteration not detected")
	}

	// A store appearing in the prologue.
	bad4 := synth(3, time.Millisecond)
	bad4.Emit(Event{Op: Store, Step: 0, Iter: 0, Buf: 0})
	if err := bad4.CheckStageGraph([]int{3}, true); err == nil || !strings.Contains(err.Error(), "store of iter 0 at step 0") {
		t.Errorf("prologue store not detected: %v", err)
	}
}

func TestOpsInStep(t *testing.T) {
	evs := []Event{{Op: Store}, {Op: Load}, {Op: Store}}
	ops := OpsInStep(evs)
	if len(ops) != 2 || ops[0] != Load || ops[1] != Store {
		t.Fatalf("OpsInStep = %v", ops)
	}
}

func TestOverlapFraction(t *testing.T) {
	// Steady state with compute twice as long as data: all data hidden.
	r := synth(8, time.Millisecond)
	if f := r.OverlapFraction(); f < 0.75 {
		t.Fatalf("overlap fraction %v, want high", f)
	}
	// No compute at all: zero overlap.
	r2 := New()
	r2.Emit(Event{Op: Load, Step: 0, Start: time.Now(), End: time.Now().Add(time.Millisecond)})
	if f := r2.OverlapFraction(); f != 0 {
		t.Fatalf("load-only overlap %v, want 0", f)
	}
}

func TestByStep(t *testing.T) {
	r := synth(4, time.Millisecond)
	by := r.ByStep()
	if len(by[0]) != 1 || len(by[2]) != 3 {
		t.Fatalf("ByStep groups wrong: %d, %d", len(by[0]), len(by[2]))
	}
}

func TestOpStrings(t *testing.T) {
	if Load.String() != "load" || Compute.String() != "compute" || Store.String() != "store" {
		t.Fatal("op names wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Fatal("unknown op name wrong")
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Op: Load, Start: time.Now()})
			}
		}()
	}
	wg.Wait()
	if len(r.Events()) != 800 {
		t.Fatalf("lost events: %d", len(r.Events()))
	}
}

func TestRenderTimeline(t *testing.T) {
	r := synth(4, time.Millisecond)
	var b strings.Builder
	if err := r.RenderTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "data/0") || !strings.Contains(out, "compute/0") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	// The data row's steady-state cells must show store-before-load "SL".
	for _, l := range lines {
		if strings.HasPrefix(l, "data/0") {
			if !strings.Contains(l, "SL") {
				t.Fatalf("data row missing SL steady state: %q", l)
			}
		}
	}
	// Empty recorder renders a placeholder.
	var e strings.Builder
	if err := New().RenderTimeline(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "no events") {
		t.Fatal("empty timeline placeholder missing")
	}
}

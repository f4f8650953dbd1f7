package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// synth builds a recorder holding a perfect lane schedule of a graph with
// the given per-stage iteration counts on the given number of lanes, each
// op lasting dur and each stage starting after the last ends.
func synth(iters []int, lanes int, dur time.Duration) *Recorder {
	r := New()
	t := time.Now()
	for s, n := range iters {
		end := t
		for l := 0; l < lanes; l++ {
			at := t
			lo, hi := share(n, l, lanes)
			for i := lo; i < hi; i++ {
				for _, op := range []Op{Load, Compute, Store} {
					r.Emit(Event{Op: op, Stage: s, Iter: i, Lane: l, Start: at, End: at.Add(dur)})
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

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Op: Load})
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
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

// A lane's schedule is Table II with a one-block buffer, so the lane
// checker keeps the Table II checker's tests.
func TestCheckTableIIAcceptsValidSchedule(t *testing.T) {
	for _, iters := range [][]int{{1}, {2}, {7}, {3, 1, 4}, {9, 9}} {
		for lanes := 1; lanes <= 3; lanes++ {
			if err := synth(iters, lanes, time.Millisecond).CheckLanes(iters, lanes); err != nil {
				t.Errorf("iters=%v lanes=%d: %v", iters, lanes, err)
			}
		}
	}
}

// The checker refuses a schedule that breaks each of its rules.
func TestCheckTableIIRejectsViolations(t *testing.T) {
	iters := []int{4, 4}
	good := synth(iters, 2, time.Millisecond).Events()
	edit := func(f func(evs []Event) []Event) *Recorder {
		r := New()
		for _, e := range f(append([]Event(nil), good...)) {
			r.Emit(e)
		}
		return r
	}
	for name, r := range map[string]*Recorder{
		"missing compute": edit(func(evs []Event) []Event {
			return slices.DeleteFunc(evs, func(e Event) bool { return e.Op == Compute && e.Stage == 1 && e.Iter == 2 })
		}),
		"stored twice": edit(func(evs []Event) []Event {
			e := evs[len(evs)-1]
			e.Start, e.End = e.End, e.End.Add(time.Millisecond)
			return append(evs, e)
		}),
		"wrong lane": edit(func(evs []Event) []Event {
			for i := range evs {
				if evs[i].Stage == 0 && evs[i].Iter == 0 {
					evs[i].Lane = 1
				}
			}
			return evs
		}),
		"compute before load": edit(func(evs []Event) []Event {
			for i := range evs {
				if evs[i].Stage == 0 && evs[i].Iter == 1 && evs[i].Op != Store {
					evs[i].Op = 1 - evs[i].Op
				}
			}
			return evs
		}),
		"stage overlap": edit(func(evs []Event) []Event {
			for i := range evs {
				if evs[i].Stage == 1 && evs[i].Iter == 0 && evs[i].Op == Load {
					evs[i].Start = evs[i].Start.Add(-4 * time.Millisecond)
				}
			}
			return evs
		}),
		"stage out of range": edit(func(evs []Event) []Event {
			return append(evs, Event{Op: Load, Stage: 2, Lane: 0, Start: evs[len(evs)-1].End})
		}),
	} {
		if err := r.CheckLanes(iters, 2); err == nil {
			t.Errorf("%s: violation not detected", name)
		}
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
	r := synth([]int{4, 2}, 2, time.Millisecond)
	var b strings.Builder
	if err := r.RenderTimeline(&b); err != nil {
		t.Fatal(err)
	}
	want := "lane/0   s0 i0–1: LCS LCS | s1 i0: LCS\n" +
		"lane/1   s0 i2–3: LCS LCS | s1 i1: LCS\n"
	if out := b.String(); out != want {
		t.Fatalf("timeline:\n%s\nwant:\n%s", out, want)
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

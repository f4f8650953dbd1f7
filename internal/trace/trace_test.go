package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

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
	// Two lanes run a graph of 4 and 2 iterations; stage 1 folds its
	// loads, and lane 1's last block its store too.
	r := New()
	at := time.Now()
	for s, n := range []int{4, 2} {
		for i := 0; i < n; i++ {
			for _, op := range []Op{Load, Compute, Store} {
				folded := s == 1 && (op == Load || op == Store && i == 1)
				end := at
				if !folded {
					end = at.Add(time.Millisecond)
				}
				r.Emit(Event{Op: op, Stage: s, Iter: i, Lane: i * 2 / n, Start: at, End: end, Folded: folded})
				at = end
			}
		}
	}
	var b strings.Builder
	if err := r.RenderTimeline(&b); err != nil {
		t.Fatal(err)
	}
	want := "lane/0   s0 i0–1: LCS LCS | s1 i0: CS\n" +
		"lane/1   s0 i2–3: LCS LCS | s1 i1: C\n"
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

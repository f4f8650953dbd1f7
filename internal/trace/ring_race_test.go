package trace

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestRingConcurrentWritersAndExport hammers a small ring from many
// concurrent writers while Chrome exports run in the middle of the
// wraparound — the always-on production configuration. Run under -race
// this proves the ring's locking covers rotation, and the final state
// check proves rotation never loses the newest entries or resurrects
// overwritten ones.
func TestRingConcurrentWritersAndExport(t *testing.T) {
	const (
		capacity = 64
		writers  = 8
		perW     = 500 // writers×perW ≫ capacity: constant wraparound
	)
	r := NewRing(capacity)
	base := time.Unix(3000, 0)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				start := base.Add(time.Duration(w*perW+i) * time.Microsecond)
				r.Emit(Event{
					Op: Op(i % 3), Iter: i, Lane: w, Trace: "trace-race",
					Start: start, End: start.Add(time.Microsecond),
				})
				r.EmitSpan(Span{
					Req: uint64(w), Name: "exec", Trace: "trace-race",
					Start: start, End: start.Add(time.Microsecond),
				})
			}
		}(w)
	}
	// Exports race the writers: snapshots must be internally consistent even
	// while the ring rotates underneath them.
	exportErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := r.WriteChromeTrace(io.Discard); err != nil {
				select {
				case exportErr <- err:
				default:
				}
				return
			}
			if err := WriteChromeNodes(io.Discard, []NodeTrace{
				{Name: "n0", Events: r.Events(), Spans: r.Spans()},
			}); err != nil {
				select {
				case exportErr <- err:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-exportErr:
		t.Fatalf("export during wraparound: %v", err)
	default:
	}

	evs := r.Events()
	spans := r.Spans()
	if len(evs) != capacity || len(spans) != capacity {
		t.Fatalf("ring holds %d events / %d spans after churn, want %d each",
			len(evs), len(spans), capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start.Before(evs[i-1].Start) {
			t.Fatalf("events not sorted by start at %d", i)
		}
	}
	gotEvs, gotSpans := r.ForTrace("trace-race")
	if len(gotEvs) != capacity || len(gotSpans) != capacity {
		t.Fatalf("ForTrace lost entries: %d events %d spans", len(gotEvs), len(gotSpans))
	}
}

// TestRingWraparoundDuringExportDeterministic interleaves writes and an
// export deterministically across the wrap boundary: fill to capacity,
// snapshot, overwrite everything, snapshot again — the second snapshot
// must contain only the new generation.
func TestRingWraparoundDuringExportDeterministic(t *testing.T) {
	const capacity = 8
	r := NewRing(capacity)
	base := time.Unix(4000, 0)
	for i := 0; i < capacity; i++ {
		r.Emit(mkEvent(Load, i, 0, base.Add(time.Duration(i)*time.Millisecond)))
	}
	if err := r.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		r.Emit(mkEvent(Store, 100+i, 0, base.Add(time.Duration(100+i)*time.Millisecond)))
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("got %d events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if e.Iter != 100+i || e.Op != Store {
			t.Fatalf("event %d = iter %d op %v; old generation leaked through wrap", i, e.Iter, e.Op)
		}
	}
}

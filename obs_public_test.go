package repro

import (
	"testing"

	"repro/internal/stagegraph"
)

// TestObservability3DOverlapOccupancy is the observability acceptance
// gate: a doublebuf 3D run must report ≥0.9 steady-state overlap occupancy
// (with a buffer small enough for a deep pipeline), and the unfused oracle
// schedule (stagegraph.Ablation.Unfused, which only a test can set) must measurably
// change what the telemetry reports — proving it distinguishes schedules
// rather than just counting bytes.
func TestObservability3DOverlapOccupancy(t *testing.T) {
	const dim = 64
	run := func(fused bool) Observability {
		restore := stagegraph.SetAblation(stagegraph.Ablation{Unfused: !fused})
		p, err := NewFFT3D(dim, dim, dim, WithWorkers(2, 2), WithBufferElems(1<<12), WithRoofline(20))
		restore()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		src := make([]complex128, p.Len())
		dst := make([]complex128, p.Len())
		for i := range src {
			src[i] = complex(float64(i%17), float64(i%5))
		}
		if err := p.Forward(dst, src); err != nil {
			t.Fatal(err)
		}
		return p.Observability()
	}

	fused := run(true)
	unfused := run(false)

	if fused.OverlapOccupancy < 0.9 {
		t.Fatalf("fused overlap occupancy = %v, want ≥ 0.9", fused.OverlapOccupancy)
	}
	if unfused.OverlapOccupancy >= fused.OverlapOccupancy {
		t.Fatalf("unfused occupancy %v not below fused %v",
			unfused.OverlapOccupancy, fused.OverlapOccupancy)
	}
	if fused.Steps >= unfused.Steps {
		t.Fatalf("fused schedule %d steps, unfused %d: fusion should shorten it",
			fused.Steps, unfused.Steps)
	}

	// Byte accounting is schedule-independent: every stage streams the whole
	// cube once in and once out regardless of fusion.
	wantBytes := uint64(dim * dim * dim * 16)
	for _, snap := range []Observability{fused, unfused} {
		if len(snap.Stages) != 3 {
			t.Fatalf("stages = %d, want 3", len(snap.Stages))
		}
		for _, st := range snap.Stages {
			if st.Load.Bytes != wantBytes || st.Store.Bytes != wantBytes {
				t.Fatalf("stage %s bytes load/store = %d/%d, want %d",
					st.Name, st.Load.Bytes, st.Store.Bytes, wantBytes)
			}
			if st.GBs <= 0 || st.Load.GBs <= 0 || st.Store.GBs <= 0 {
				t.Fatalf("stage %s bandwidth not measured: %+v", st.Name, st)
			}
			if st.FracPeak <= 0 {
				t.Fatalf("stage %s FracPeak = %v with roofline set", st.Name, st.FracPeak)
			}
		}
	}

	// The per-stage GB/s must come from independent timed schedules — with
	// identical byte counts, differing rates can only reflect timing, i.e.
	// the telemetry sees the schedule change.
	same := true
	for i := range fused.Stages {
		if fused.Stages[i].GBs != unfused.Stages[i].GBs {
			same = false
		}
	}
	if same {
		t.Fatal("per-stage GB/s identical between fused and unfused runs")
	}
}

// TestObservabilityAccumulates checks the snapshot is cumulative across
// transforms and that the facade exposes it for 2D and 1D plans too.
func TestObservabilityAccumulates(t *testing.T) {
	p, err := NewFFT2D(64, 64, WithWorkers(1, 1), WithBufferElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	src := make([]complex128, p.Len())
	dst := make([]complex128, p.Len())
	for i := range src {
		src[i] = complex(1, 0)
	}
	for i := 0; i < 3; i++ {
		if err := p.Forward(dst, src); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Observability()
	if snap.Runs != 3 {
		t.Fatalf("runs = %d, want 3", snap.Runs)
	}
	if want := uint64(3 * 64 * 64 * 16 * 2 * 2); snap.TotalBytes() != want {
		// 2 stages × (load+store) × 3 runs.
		t.Fatalf("total bytes = %d, want %d", snap.TotalBytes(), want)
	}

	// 1D plans have no pipeline: the same surface reports the zero value.
	small, err := NewFFT1D(256)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if s := small.Observability(); s.Runs != 0 || len(s.Stages) != 0 {
		t.Fatalf("1D snapshot not zero: %+v", s)
	}
}

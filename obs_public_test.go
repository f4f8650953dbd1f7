package repro

import "testing"

// TestObservability3DOverlapOccupancy is the observability acceptance gate
// for lanes: a 3D run on one lane and on two reports the same exact bytes
// per stage, measured bandwidth and FracPeak, one block a step and no
// both-busy step (the occupancy fields a lane has no roles to fill), and
// per-lane time whose legs and waits account for every lane's part of the
// wall.
func TestObservability3DOverlapOccupancy(t *testing.T) {
	const dim = 64
	wantBytes := uint64(dim * dim * dim * 16)
	for lanes := 1; lanes <= 2; lanes++ {
		p, err := NewFFT3D(dim, dim, dim, withLanes(lanes), WithBufferElems(1<<12), WithRoofline(20))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]complex128, p.Len())
		dst := make([]complex128, p.Len())
		for i := range src {
			src[i] = complex(float64(i%17), float64(i%5))
		}
		if err := p.Forward(dst, src); err != nil {
			t.Fatal(err)
		}
		snap := p.Observability()
		p.Close()
		if len(snap.Stages) != 3 || len(snap.Lanes) != lanes || snap.DataWorkers != lanes {
			t.Fatalf("%d lanes: %d stages, %d lane snapshots, %d workers", lanes, len(snap.Stages), len(snap.Lanes), snap.DataWorkers)
		}
		blocks := 0
		for _, n := range p.p.Iters() {
			blocks += n
		}
		if snap.Steps != uint64(blocks) || snap.BothBusySteps != 0 {
			t.Fatalf("%d lanes: %d steps, %d both busy; want %d blocks and 0", lanes, snap.Steps, snap.BothBusySteps, blocks)
		}
		for _, st := range snap.Stages {
			if st.Load.Bytes != wantBytes || st.Store.Bytes != wantBytes {
				t.Fatalf("%d lanes: stage %s bytes load/store = %d/%d, want %d",
					lanes, st.Name, st.Load.Bytes, st.Store.Bytes, wantBytes)
			}
			if st.GBs <= 0 || st.Load.GBs <= 0 || st.Store.GBs <= 0 || st.FracPeak <= 0 {
				t.Fatalf("%d lanes: stage %s bandwidth not measured: %+v", lanes, st.Name, st)
			}
		}
		for i, l := range snap.Lanes {
			if l.LegNs == 0 || l.LegNs+l.BarrierWaitNs > snap.WallNs {
				t.Fatalf("%d lanes: lane %d legs %d + wait %d ns against a wall of %d",
					lanes, i, l.LegNs, l.BarrierWaitNs, snap.WallNs)
			}
		}
	}
}

// TestObservabilityAccumulates checks the snapshot is cumulative across
// transforms and that the facade exposes it for 2D and 1D plans too.
func TestObservabilityAccumulates(t *testing.T) {
	p, err := NewFFT2D(64, 64, withLanes(1), WithBufferElems(1<<10))
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

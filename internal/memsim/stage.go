package memsim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// StageSpec describes one pipelined FFT stage at paper scale, per pipeline
// block.
type StageSpec struct {
	Iters           int
	LoadBytes       float64 // streamed in per block
	StoreLocalBytes float64 // rotated out, same NUMA domain (already
	// inflated by any store-efficiency discount)
	StoreCrossBytes float64 // rotated out across the interconnect
	Flops           float64 // computed per block
}

// Resources are the shared throughputs of the simulated machine.
type Resources struct {
	DRAM    *Resource
	Link    *Resource // nil when single socket
	Compute *Resource
}

// SimulateGraph plays the paper's Table II schedule for a whole multi-stage
// transform on one shared set of resources and returns its wall time in
// seconds. Each global step starts the data chain (stores of iteration
// base+s-2 of any active stage: local writeback then cross-link transfer,
// followed by the loads of iteration base+s) concurrently with the active
// compute, and the step's barrier falls when both finish. Prologue and
// epilogue emerge naturally from the iteration guards, so pipeline fill is
// simulated rather than approximated.
//
// The stages share the steady state: stage k's epilogue stores and stage
// k+1's prologue loads land in the same step's data chain, so an S-stage
// graph runs sum(iters)+S+1 steps and pays one fill/drain for the whole
// transform (a one-stage graph runs iters+2).
func SimulateGraph(r Resources, stages []StageSpec) float64 {
	e := &Engine{}
	bases := make([]int, len(stages))
	total := 1 // the single epilogue store step
	for i, s := range stages {
		bases[i] = total - 1
		total += s.Iters + 1
	}
	for step := 0; step < total; step++ {
		var wait []*Task
		// Data chain: stores strictly before loads, as the data workers'
		// store-then-barrier-then-load ordering guarantees; sequential for
		// the data workers but concurrent with compute.
		var chain []*Task
		for si := range stages {
			s := &stages[si]
			if i := step - bases[si] - 2; i >= 0 && i < s.Iters {
				if s.StoreLocalBytes > 0 {
					chain = append(chain, &Task{Name: "store-local", Resource: r.DRAM, Units: s.StoreLocalBytes})
				}
				if s.StoreCrossBytes > 0 && r.Link != nil {
					chain = append(chain, &Task{Name: "store-cross", Resource: r.Link, Units: s.StoreCrossBytes})
					// Cross writes also land in the remote DRAM.
					chain = append(chain, &Task{Name: "store-remote", Resource: r.DRAM, Units: s.StoreCrossBytes})
				}
			}
		}
		for si := range stages {
			s := &stages[si]
			if i := step - bases[si]; i >= 0 && i < s.Iters {
				chain = append(chain, &Task{Name: "load", Resource: r.DRAM, Units: s.LoadBytes})
			}
		}
		for si := range stages {
			s := &stages[si]
			if i := step - bases[si] - 1; i >= 0 && i < s.Iters {
				comp := &Task{Name: "compute", Resource: r.Compute, Units: s.Flops}
				e.Start(comp)
				wait = append(wait, comp)
			}
		}
		// Run the chain links one after another, letting compute overlap.
		for _, t := range chain {
			e.Start(t)
			e.WaitAll(t)
		}
		wait = append(wait, chain...)
		e.WaitAll(wait...)
	}
	return e.Now()
}

// SimulateDoubleBuf3D plays the paper's 3D transform on machine m with the
// given socket count and returns total seconds, executing the three stages
// as one stage graph on shared resources under the paper's Table II
// schedule. The byte/flop accounting matches internal/perfmodel's (same
// inputs), but the timing comes from the event simulation rather than
// closed forms.
func SimulateDoubleBuf3D(m machine.Machine, k, n, mm, sockets int) (float64, error) {
	if sockets < 1 || sockets > m.Sockets {
		return 0, fmt.Errorf("memsim: %s has %d socket(s)", m.Name, m.Sockets)
	}
	elems := k * n * mm
	bytes := float64(elems) * 16
	bufElems := m.DefaultBufferElems()
	iters := elems / sockets / bufElems
	if iters < 1 {
		iters = 1
	}
	blockBytes := bytes / float64(sockets) / float64(iters)

	// The sockets run symmetric pipelines; we simulate one socket's
	// pipeline against its own per-socket resources (its DRAM channel
	// share, one outgoing link direction, its cores). Cross writes also
	// consume the destination's DRAM; by symmetry each socket receives as
	// much as it sends, so the incoming remote traffic is charged to the
	// local DRAM resource.
	mo := perfmodel.New(m)
	coresPerSocket := m.CoresPerSocket
	if m.ThreadsPerCore < 2 {
		coresPerSocket /= 2
	}
	computeCap := m.FreqGHz * m.FlopsPerCycle() * float64(coresPerSocket) * mo.FFTComputeEff * 1e9
	flopsPerBlock := 5 * float64(elems) * log2(elems) / 3 / float64(sockets) / float64(iters)

	specs := make([]StageSpec, 3)
	for st := 1; st <= 3; st++ {
		crossFrac := 0.0
		if sockets > 1 && st >= 2 {
			crossFrac = float64(sockets-1) / float64(sockets)
		}
		directions := 1
		if sockets > 1 {
			directions = sockets - 1
		}
		specs[st-1] = StageSpec{
			Iters:     iters,
			LoadBytes: blockBytes,
			StoreLocalBytes: blockBytes * (1 - crossFrac) /
				mo.RotateStoreEff,
			StoreCrossBytes: blockBytes * crossFrac / float64(directions),
			Flops:           flopsPerBlock,
		}
	}
	r := Resources{
		DRAM:    NewResource("dram", m.SocketStreamGBs()*1e9),
		Compute: NewResource("compute", computeCap),
	}
	if sockets > 1 && m.LinkGBs > 0 {
		r.Link = NewResource("link", m.LinkGBs*1e9)
	}
	return SimulateGraph(r, specs), nil
}

func log2(n int) float64 {
	v := 0.0
	for x := n; x > 1; x >>= 1 {
		v++
	}
	return v
}

package memsim

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// NetworkLink models the fabric between fftserved nodes in the distributed
// shard tier: per-node bandwidth in each direction plus a per-transfer
// latency. The fluid engine models the bandwidth sharing; the latency term
// is added per chunk after the fact (it serializes with nothing).
type NetworkLink struct {
	GBs        float64 // per-node bandwidth, each direction
	LatencySec float64 // per-chunk request latency
	ChunkBytes float64 // transfer granularity (0 = the wire default, 2 MiB)
}

func (l NetworkLink) chunkBytes() float64 {
	if l.ChunkBytes > 0 {
		return l.ChunkBytes
	}
	return 2 << 20
}

// latencyFor returns the serial latency cost of moving `bytes` in
// chunk-sized transfers over this link.
func (l NetworkLink) latencyFor(bytes float64) float64 {
	if bytes <= 0 || l.LatencySec <= 0 {
		return 0
	}
	return math.Ceil(bytes/l.chunkBytes()) * l.LatencySec
}

// ShardedEstimate breaks a SimulateSharded prediction into its serial
// phases (seconds).
type ShardedEstimate struct {
	Workers    int
	ScatterSec float64 // coordinator input push, bounded by its NIC
	RunSec     float64 // per-worker stage graph incl. the W² exchange
	GatherSec  float64 // coordinator output pull
	TotalSec   float64
}

// SimulateSharded predicts one sharded k×n×m transform across a fleet of
// `workers` identical nodes of machine m joined by link, the way the shard
// tier executes it: the coordinator scatters input z-slabs (serialized on
// its own NIC), every worker runs the three-stage slab graph with the
// stage-2 rotation crossing the network to its sk−1 peers (the exchange
// overlaps compute exactly like a cross-socket rotation, so it reuses the
// Table II schedule with the network as the link resource), and the
// coordinator gathers the output y-slabs. workers must divide k and n,
// mirroring the shard tier's slab constraint.
func SimulateSharded(m machine.Machine, k, n, mm, workers int, link NetworkLink) (ShardedEstimate, error) {
	var est ShardedEstimate
	if workers < 1 {
		return est, fmt.Errorf("memsim: need ≥ 1 worker, got %d", workers)
	}
	if k%workers != 0 || n%workers != 0 {
		return est, fmt.Errorf("memsim: %d workers must divide k=%d and n=%d", workers, k, n)
	}
	if link.GBs <= 0 {
		return est, fmt.Errorf("memsim: network bandwidth must be positive, got %v", link.GBs)
	}
	est.Workers = workers

	elems := k * n * mm
	bytes := float64(elems) * 16
	slabBytes := bytes / float64(workers)

	// Scatter and gather serialize on the coordinator's NIC: the fleet's
	// aggregate inbound capacity exceeds the one outbound link.
	netBps := link.GBs * 1e9
	est.ScatterSec = bytes/netBps + link.latencyFor(bytes)
	est.GatherSec = bytes/netBps + link.latencyFor(bytes)

	// Per-worker run: the three-stage slab graph over elems/workers, with
	// the stage-2 rotation shipping (workers−1)/workers of the slab to
	// peers. Same schedule as a multi-socket rotation — only the link
	// resource is the network, and each node owns a whole machine.
	slabElems := elems / workers
	bufElems := m.DefaultBufferElems()
	iters := slabElems / bufElems
	if iters < 1 {
		iters = 1
	}
	blockBytes := slabBytes / float64(iters)
	flopsPerBlock := 5 * float64(elems) * log2(elems) / 3 / float64(workers) / float64(iters)

	// Unlike the socket model (one point-to-point link per peer), a node
	// has one NIC: all sk−1 peer streams share it, so the whole cross
	// fraction is charged to the single network resource.
	crossFrac := float64(workers-1) / float64(workers)
	specs := []StageSpec{
		{Iters: iters, LoadBytes: blockBytes, StoreLocalBytes: blockBytes, Flops: flopsPerBlock},
		{
			Iters:           iters,
			LoadBytes:       blockBytes,
			StoreLocalBytes: blockBytes * (1 - crossFrac),
			StoreCrossBytes: blockBytes * crossFrac,
			Flops:           flopsPerBlock,
		},
		{Iters: iters, LoadBytes: blockBytes, StoreLocalBytes: blockBytes, Flops: flopsPerBlock},
	}
	r := Resources{
		DRAM:    NewResource("dram", m.StreamGBs*1e9),
		Compute: NewResource("compute", nodeComputeCap(m)),
	}
	if workers > 1 {
		r.Link = NewResource("net", netBps)
	}
	est.RunSec = SimulateGraph(r, specs) + link.latencyFor(slabBytes*crossFrac)

	est.TotalSec = est.ScatterSec + est.RunSec + est.GatherSec
	return est, nil
}

// nodeComputeCap is a whole node's FFT compute throughput in flops/s,
// mirroring the per-socket derivation in SimulateDoubleBuf3D.
func nodeComputeCap(m machine.Machine) float64 {
	cores := m.CoresPerSocket * m.Sockets
	if m.ThreadsPerCore < 2 {
		cores /= 2
	}
	if cores < 1 {
		cores = 1
	}
	return m.FreqGHz * m.FlopsPerCycle() * float64(cores) * perfmodel.New(m).FFTComputeEff * 1e9
}

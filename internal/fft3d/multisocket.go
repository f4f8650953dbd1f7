package fft3d

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/stagegraph"
)

// DistPlan is the paper's dual-socket (general multi-socket) 3D FFT
// (§IV-B): a slab-pencil decomposition in which every socket owns a contiguous
// z-slab, the first stage reads and writes entirely within its NUMA domain,
// and the stage-2 and stage-3 rotations implement the Table III write
// matrices W², W³ whose stores cross the QPI/HT link for the (sk-1)/sk
// fraction of the data owned by other sockets (Fig. 8).
//
// Distributed data views (sk = sockets, ksl = k/sk, mb = m/μ):
//
//	A: k×n×m cube, z-partitioned; socket s owns z ∈ [s·ksl, (s+1)·ksl).
//	B: per-socket rotated sub-cube mb × ksl × n × μ (blocks (xb, zl, y)).
//	C: (y,xb)-partitioned pillars: unit q = y·mb+xb holds k×μ contiguous;
//	   socket s owns q ∈ [s·n·mb/sk, (s+1)·n·mb/sk).
//
// Each socket compiles its slab's work into a stage graph and executes it
// through the shared stagegraph executor. Stages 1 and 2 fuse per socket —
// stage 1's rotation (W¹) is entirely NUMA-local, so socket s's stage-2
// loads depend only on socket s's own stage-1 stores and the intra-socket
// store-before-load ordering suffices. The stage-2 stores scatter across
// all sockets, so a global barrier separates them from stage 3, which runs
// as a second per-socket graph.
//
// Setting sockets = 1 reduces every write matrix to its single-socket form
// (Table III: "By setting the number of sockets equal to sk = 1, the
// implementation defaults to the single-socket implementation").
type DistPlan struct {
	k, n, m int
	sk      int

	sys *numa.System
	bIm *numa.Distributed // intermediate B
	cIm *numa.Distributed // intermediate C

	// One runner per socket: its slab's front (stages 1+2) and back (stage
	// 3) graphs on its own double buffer and executor, compiled once at
	// plan time. Per call only the direction, curDst and the stage-1 source
	// are bound.
	runs   []*stagegraph.Runner
	curDst *numa.Distributed

	lock   sync.Mutex // serializes Transform: bIm/cIm are shared scratch
	closed bool

	// StageTraffic records, for the most recent Transform, the local and
	// cross-interconnect bytes written by each stage.
	StageTraffic [3]TrafficStat
}

// TrafficStat is one stage's write traffic, local and cross-socket.
type TrafficStat struct {
	LocalBytes int64
	CrossBytes int64
}

// NewDistPlan builds a multi-socket plan. Requirements: sk ≥ 1, sk | k,
// μ | m, sk | n·(m/μ) (so the stage-2/3 ownership ranges are uniform).
func NewDistPlan(k, n, m, sockets int, cfg core.Config) (*DistPlan, error) {
	if sockets < 1 {
		return nil, fmt.Errorf("fft3d: invalid socket count %d", sockets)
	}
	slab, err := cfg.Pencils("fft3d", k, n, m)
	if err != nil {
		return nil, err
	}
	slab.Shards = sockets
	if _, err := slab.Check(); err != nil {
		return nil, err
	}
	sys, err := numa.NewSystem(sockets)
	if err != nil {
		return nil, err
	}
	p := &DistPlan{k: k, n: n, m: m, sk: sockets, sys: sys}
	if p.bIm, err = sys.Alloc(k * n * m); err != nil {
		return nil, err
	}
	if p.cIm, err = sys.Alloc(k * n * m); err != nil {
		return nil, err
	}
	for s := 0; s < sockets; s++ {
		// Socket s's slab: B and C are its parts of the shared
		// intermediates, every store goes through the NUMA traffic
		// accounting, and the stage-3 scatter targets whatever curDst the
		// running Transform set.
		slab.Index = s
		slab.Mid = []stagegraph.Array{
			{C: p.bIm.Part(s), Base: s * p.bIm.PartLen(), WriteC: func(off int, blk []complex128) {
				p.bIm.WriteBlock(s, off, blk)
			}},
			{C: p.cIm.Part(s), WriteC: func(off int, blk []complex128) {
				p.cIm.WriteBlock(s, off, blk)
			}},
		}
		slab.Out = stagegraph.Array{WriteC: func(off int, blk []complex128) {
			p.curDst.WriteBlock(s, off, blk)
		}}
		g, err := slab.Build()
		if err != nil {
			p.Close()
			return nil, err
		}
		front, back := g.Cut(2)
		run, err := cfg.NewRunner("fft3d", nil, front, back)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.runs = append(p.runs, run)
	}
	return p, nil
}

// Close releases every socket's persistent executor workers. Idempotent
// and safe to call concurrently — with other Close calls and with a
// Transform in flight (Close waits for it; later Transforms return an
// error).
func (p *DistPlan) Close() {
	p.lock.Lock()
	defer p.lock.Unlock()
	p.closed = true
	for _, r := range p.runs {
		r.Close()
	}
}

// System exposes the simulated NUMA system (for traffic inspection).
func (p *DistPlan) System() *numa.System { return p.sys }

// Sockets returns the socket count.
func (p *DistPlan) Sockets() int { return p.sk }

// Alloc allocates a z-partitioned data vector compatible with the plan.
func (p *DistPlan) Alloc() (*numa.Distributed, error) {
	return p.sys.Alloc(p.k * p.n * p.m)
}

// Transform computes dst = DFT_{k×n×m}(src) over the distributed slabs.
// dst and src must come from Alloc and must be distinct.
func (p *DistPlan) Transform(dst, src *numa.Distributed, sign int) error {
	if src.Len() != p.k*p.n*p.m || dst.Len() != src.Len() {
		return fmt.Errorf("fft3d: distributed size mismatch")
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.closed {
		return fmt.Errorf("fft3d: plan closed")
	}
	p.sys.ResetTraffic()

	p.curDst = dst
	defer func() { p.curDst = nil }()

	runPhase := func(graph int) error {
		var wg sync.WaitGroup
		errs := make([]error, p.sk)
		for s := 0; s < p.sk; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = p.runs[s].Run(graph, stagegraph.Call{
					In: stagegraph.Endpoint{C: src.Part(s)}, Sign: sign})
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Phase A: stages 1+2, fused per socket. A global barrier (the phase
	// boundary) orders every socket's stage-2 scatter before any stage-3
	// load.
	if err := runPhase(0); err != nil {
		return err
	}
	la, ca := p.sys.LocalBytes(), p.sys.CrossBytes()
	// Phase B: stage 3.
	if err := runPhase(1); err != nil {
		return err
	}
	lb, cb := p.sys.LocalBytes(), p.sys.CrossBytes()

	// Per-stage traffic attribution. Stages 1 and 2 execute in one fused
	// graph, so the counters only expose their sum — but stage 1's W¹
	// rotation is entirely local and writes every element exactly once, so
	// its contribution is known in closed form and stage 2's follows by
	// subtraction.
	stage1Local := int64(p.k*p.n*p.m) * 16
	p.StageTraffic[0] = TrafficStat{LocalBytes: stage1Local}
	p.StageTraffic[1] = TrafficStat{LocalBytes: la - stage1Local, CrossBytes: ca}
	p.StageTraffic[2] = TrafficStat{LocalBytes: lb - la, CrossBytes: cb - ca}
	return nil
}

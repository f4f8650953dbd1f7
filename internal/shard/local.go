package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/stagegraph"
)

// Local is the paper's multi-socket 3D FFT (§IV-B, Table III, Fig. 8): the
// sharded slab-pencil decomposition run in one process, one slab per socket.
// Slab s owns input z ∈ [s·k/sk, (s+1)·k/sk), runs a fleet worker's two
// graphs — stages 1+2 fused, then stage 3 into its own y-slab — and the
// stage-2 W² scatter copies every block straight into the owning slab's C
// pillars instead of shipping it over the network. A barrier between the
// front and back graphs orders every slab's scatter before any stage-3 load.
//
// Stage 1's rotation stays inside its slab; stage 2's scatter and stage 3's
// y-slab → z-slab placement cross to another slab for the (sk−1)/sk of the
// data it owns (Fig. 8). StageTraffic counts both, byte for byte. With
// sk = 1 every write is local: the single-socket plan, as Table III says.
type Local struct {
	g     geom
	plans []*workerPlan
	xs    []*localExchange

	lock   sync.Mutex // serializes Transform: the plans' buffers are shared
	closed bool

	// StageTraffic records, for the most recent Transform, the bytes each
	// stage wrote within its slab and into another slab.
	StageTraffic [3]TrafficStat
}

// TrafficStat is one stage's write traffic, local and cross-slab.
type TrafficStat struct {
	LocalBytes int64
	CrossBytes int64
}

// localExchange is the in-process exchange: a W² block goes straight into
// the owning plan's C pillars, and its bytes count as local or cross.
type localExchange struct {
	from         int
	slab         int // C elements per shard
	mu           int
	parts        [][]complex128 // [shard] its C pillars (cPart)
	local, cross atomic.Int64
}

func (x *localExchange) write(off, stride int, run []complex128) {
	var local, cross int64
	for b := 0; b < len(run); b, off = b+x.mu, off+stride {
		v := off / x.slab
		o := off - v*x.slab
		copy(x.parts[v][o:o+x.mu], run[b:b+x.mu])
		if v == x.from {
			local += int64(x.mu) * 16
		} else {
			cross += int64(x.mu) * 16
		}
	}
	x.local.Add(local)
	x.cross.Add(cross)
}

// NewLocal builds a k×n×m plan over sk slabs with block length mu
// (0 = machine.PreferredMu(m)); sk must divide k and n, and mu must divide m.
// opts.BufferElems sizes each slab's pipeline blocks; the network fields
// are unused. Each slab's plan runs one lane per GOMAXPROCS.
func NewLocal(k, n, m, sk, mu int, opts WorkerOptions) (*Local, error) {
	if mu == 0 {
		mu = machine.PreferredMu(m)
	}
	g, err := newGeom(k, n, m, sk, mu)
	if err != nil {
		return nil, fmt.Errorf("shard: %v", err)
	}
	l := &Local{g: g}
	var parts [][]complex128 // [shard] its C pillars
	for s := 0; s < sk; s++ {
		p, err := buildWorkerPlan(planKey{k, n, m, sk, s, mu}, 0, opts.BufferElems)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.plans = append(l.plans, p)
		parts = append(parts, p.cPart)
	}
	for s, p := range l.plans {
		x := &localExchange{from: s, slab: g.slabElems(), mu: g.mu, parts: parts}
		p.slot.ex = x
		l.xs = append(l.xs, x)
	}
	return l, nil
}

// Close closes every slab's runner. Idempotent; it waits for a Transform in
// flight, and later Transforms return an error.
func (l *Local) Close() {
	l.lock.Lock()
	defer l.lock.Unlock()
	l.closed = true
	for _, p := range l.plans {
		p.close()
	}
}

// Transform computes dst = DFT_{k×n×m}(src), unnormalised in both
// directions (sign = fft1d.Forward or fft1d.Inverse), as the fleet does.
func (l *Local) Transform(dst, src []complex128, sign int) error {
	g := l.g
	if len(src) != g.k*g.n*g.m || len(dst) != len(src) {
		return fmt.Errorf("shard: size mismatch: len(src)=%d len(dst)=%d want %d", len(src), len(dst), g.k*g.n*g.m)
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if l.closed {
		return fmt.Errorf("shard: plan closed")
	}
	for _, x := range l.xs {
		x.local.Store(0)
		x.cross.Store(0)
	}
	slab := g.slabElems()

	// Stages 1+2: every front graph reads its z-slab of src in place.
	err := forEach(l.plans, func(s int, p *workerPlan) error {
		return p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src[s*slab : (s+1)*slab]}, Sign: sign})
	})
	if err != nil {
		return err
	}

	// Stage 3 into each y-slab, then its placement: y-slab row block z
	// (nl rows of m) is global rows (z, s·nl …), owned by slab z/ksl.
	placed := make([]TrafficStat, g.sk)
	err = forEach(l.plans, func(s int, p *workerPlan) error {
		if err := p.run.Run(1, stagegraph.Call{Out: stagegraph.Endpoint{C: p.out}, Sign: sign}); err != nil {
			return err
		}
		rows := g.nl * g.m
		for z := 0; z < g.k; z++ {
			copy(dst[(z*g.n+s*g.nl)*g.m:][:rows], p.out[z*rows:(z+1)*rows])
			if z/g.ksl == s {
				placed[s].LocalBytes += int64(rows) * 16
			} else {
				placed[s].CrossBytes += int64(rows) * 16
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	l.StageTraffic = [3]TrafficStat{{LocalBytes: int64(len(src)) * 16}}
	for s, x := range l.xs {
		l.StageTraffic[1].LocalBytes += x.local.Load()
		l.StageTraffic[1].CrossBytes += x.cross.Load()
		l.StageTraffic[2].LocalBytes += placed[s].LocalBytes
		l.StageTraffic[2].CrossBytes += placed[s].CrossBytes
	}
	return nil
}

package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
)

// FleetOrder ranks nodes for a shape by rendezvous (highest-random-weight)
// hashing: every coordinator — with no shared state — derives the same
// per-shape ordering, so repeated transforms of one shape land on the same
// workers in the same slab order and hit warm plan caches, while distinct
// shapes spread across the fleet. FNV-1a keeps the ranking stable across
// processes and restarts. Ties (improbable) break on the node name.
func FleetOrder(shape Shape, nodes []string) []string {
	type ranked struct {
		node string
		w    uint64
	}
	rs := make([]ranked, len(nodes))
	for i, node := range nodes {
		h := fnv.New64a()
		fmt.Fprintf(h, "%dx%dx%d|%s", shape.K, shape.N, shape.M, node)
		rs[i] = ranked{node, h.Sum64()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].w != rs[j].w {
			return rs[i].w > rs[j].w
		}
		return rs[i].node < rs[j].node
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.node
	}
	return out
}

// geom is the sharded slab-pencil geometry shared by coordinator and
// workers. Shard s owns input z ∈ [s·ksl, (s+1)·ksl), C pillars
// q ∈ [s·Q, (s+1)·Q) and output y ∈ [s·nl, (s+1)·nl).
type geom struct {
	k, n, m int
	sk      int // shard count
	mu      int
	mb      int // m/μ
	ksl     int // k/sk: z-rows per shard
	nl      int // n/sk: y-rows per shard
	q       int // nl·mb: C pillars per shard
}

// newGeom validates the split: sk | k for whole input z-slabs and sk | n
// so each slab's stage-3 output is a whole y-slab, gathered without a
// second exchange.
func newGeom(k, n, m, sk, mu int) (geom, error) {
	if err := core.ShapeOf(false, k, n, m).Check(core.MaxElems); err != nil {
		return geom{}, fmt.Errorf("invalid size %dx%dx%d: %w", k, n, m, err)
	}
	if sk < 1 {
		return geom{}, fmt.Errorf("invalid shard count %d", sk)
	}
	if mu < 1 || m%mu != 0 {
		return geom{}, fmt.Errorf("μ=%d does not divide m=%d", mu, m)
	}
	if k%sk != 0 {
		return geom{}, fmt.Errorf("shards=%d does not divide k=%d", sk, k)
	}
	if n%sk != 0 {
		return geom{}, fmt.Errorf("shards=%d does not divide n=%d", sk, n)
	}
	return geom{
		k: k, n: n, m: m, sk: sk, mu: mu,
		mb: m / mu, ksl: k / sk, nl: n / sk, q: (n / sk) * (m / mu),
	}, nil
}

// slabElems is the per-shard input/output slab length (they coincide:
// ksl·n·m = k·nl·m requires nothing beyond sk | k and sk | n).
func (g geom) slabElems() int { return g.ksl * g.n * g.m }

// peerShareElems is how many elements one shard's stage 2 emits toward
// each shard (itself included): Q pillars × ksl z-rows × μ.
func (g geom) peerShareElems() int { return g.q * g.ksl * g.mu }

// exchangeRoute decomposes a global C offset (q·k + z)·μ from the W²
// scatter into (owner shard, compact offset within the per-peer send
// layout). The compact layout packs shard s→v traffic densely as
// ((q − v·Q)·ksl + (z − s·ksl))·μ, so every send buffer is exactly
// peerShareElems long and chunk completion is a byte count.
func (g geom) exchangeRoute(s, off int) (v, compact int) {
	qz := off / g.mu
	q := qz / g.k
	z := qz % g.k
	v = q / g.q
	compact = ((q-v*g.q)*g.ksl + (z - s*g.ksl)) * g.mu
	return
}

// expandOffset maps a compact exchange offset from sender w back to the
// receiver's local C-part offset (q'·k + z)·μ, q' = q − recv·Q.
func (g geom) expandOffset(w, compact int) int {
	run := compact / g.mu
	qp := run / g.ksl
	zl := run % g.ksl
	return (qp*g.k + w*g.ksl + zl) * g.mu
}

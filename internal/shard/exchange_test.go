package shard

import (
	"runtime"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

// blockExchange routes a run a block at a time through exchangeRoute and
// expandOffset: the reference the router's run-at-a-time route must match.
type blockExchange struct{ p *workerPlan }

func (x blockExchange) write(off, stride int, run []complex128) {
	g := x.p.g
	for b := 0; b < len(run); b, off = b+g.mu, off+stride {
		v, c := g.exchangeRoute(x.p.index, off)
		dst := x.p.send[v]
		if v == x.p.index {
			dst, c = x.p.cPart, g.expandOffset(v, c)
		}
		copy(dst[c:c+g.mu], run[b:b+g.mu])
	}
}

// The W² stores hand the exchange router a store unit's blocks a call, and
// the router routes and counts them a run at a time: after one front graph
// on two lanes, its send buffers and cPart hold what a block-at-a-time route
// puts there, every chunk to every peer has been queued exactly once, each
// chunk's fill is its length, and the blocks routed to the shard itself
// have settled exactly its own share of the receive tracker.
func TestExchangeRouterQueuesEveryChunkOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const k, n, m, sk, mu, chunk = 8, 8, 16, 4, 4, 12 // 64-element peer shares, the last chunk short
	for idx := 0; idx < sk; idx++ {
		src := randCube(k*n*m/sk, int64(idx))
		front := func(ex func(*workerPlan) exchange) *workerPlan {
			p, err := buildWorkerPlan(planKey{k, n, m, sk, idx, mu}, chunk, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.allocSend()
			p.ex = ex(p)
			err = p.run.Run(0, stagegraph.Call{In: stagegraph.Endpoint{C: src}, Sign: fft1d.Forward})
			p.close()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		want := front(func(p *workerPlan) exchange { return blockExchange{p} })
		recv := newRecvTracker(int64(k*n*m/sk) * 16)
		var r *exchangeRouter
		p := front(func(p *workerPlan) exchange {
			r = newExchangeRouter(p, recv)
			return r
		})
		if i := cvec.FirstBitDiff(p.cPart, want.cPart); i >= 0 {
			t.Errorf("shard %d: cPart element %d is %v, want %v", idx, i, p.cPart[i], want.cPart[i])
		}
		for v := range p.send {
			if i := cvec.FirstBitDiff(p.send[v], want.send[v]); i >= 0 {
				t.Errorf("shard %d → %d: send element %d is %v, want %v", idx, v, i, p.send[v][i], want.send[v][i])
			}
		}
		close(r.queue)
		queued := map[sendChunk]int{}
		for sc := range r.queue {
			queued[sc]++
		}
		share := p.g.peerShareElems()
		nchunks := (share + chunk - 1) / chunk
		if len(queued) != (sk-1)*nchunks {
			t.Errorf("shard %d queued %d distinct chunks, want %d", idx, len(queued), (sk-1)*nchunks)
		}
		for v := 0; v < sk; v++ {
			if v == idx {
				continue
			}
			for c := 0; c < nchunks; c++ {
				_, count := r.chunkSpan(c)
				if got := queued[sendChunk{v, c}]; got != 1 || r.fill[v][c].Load() != int64(count) {
					t.Errorf("shard %d → %d chunk %d: queued %d times, fill %d of %d",
						idx, v, c, got, r.fill[v][c].Load(), count)
				}
			}
		}
		if want := int64(share) * 16; recv.got != want {
			t.Errorf("shard %d: self-routed %d B settled, want %d", idx, recv.got, want)
		}
	}
}

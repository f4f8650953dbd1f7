package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft1d"
	"repro/internal/stagegraph"
	"repro/internal/wire"
)

// planKey identifies a warm worker plan: the geometry plus this worker's
// slab index. Rendezvous routing keeps (shape → index) stable across
// jobs, so repeated shapes find their plan here.
type planKey struct {
	k, n, m, sk, index, mu int
}

// workerPlan is one warm slab plan: the runner holding the shard's two
// compiled graphs, and every buffer a job needs — input slab, B and C
// intermediates, output y-slab, and, once allocSend has run, the per-peer
// compact send buffers the networked W² scatter streams into. Only the
// lanes are leased per run, from the process engine. Exactly one
// job may own the plan at a time (the busy semaphore); the coordinator
// serializes same-shape transforms so fleet-wide acquisition cannot
// deadlock.
type workerPlan struct {
	g     geom
	index int

	// run holds the front graph (stages 1+2, whose W² stores feed the
	// exchange) and the back graph (stage 3, run once every inbound chunk
	// has landed).
	run *stagegraph.Runner

	in    []complex128   // input z-slab (ksl·n·m)
	bMid  []complex128   // B intermediate, shard-local
	cPart []complex128   // owned C pillars (k·nl·m)
	out   []complex128   // output y-slab (ksl·n·m)
	send  [][]complex128 // [peer] compact exchange buffers; send[index] nil

	chunkElems int // exchange chunk size, rounded to a multiple of μ

	// ex is where the W² scatter's blocks go: a job's exchangeRouter over
	// HTTP, set before each run (the executor's lane wake-up orders it
	// before any lane's store), or a Local's in-process exchange.
	ex exchange

	busy chan struct{} // cap 1: exclusive job ownership
}

func buildWorkerPlan(key planKey, chunkElems, bufferElems int) (*workerPlan, error) {
	g, err := newGeom(key.k, key.n, key.m, key.sk, key.mu)
	if err != nil {
		return nil, fmt.Errorf("shard: %v", err)
	}
	if chunkElems <= 0 {
		chunkElems = defaultChunkElems
	}
	chunkElems -= chunkElems % g.mu
	if chunkElems < g.mu {
		chunkElems = g.mu
	}
	p := &workerPlan{
		g: g, index: key.index,
		in:         make([]complex128, g.slabElems()),
		bMid:       make([]complex128, g.slabElems()),
		cPart:      make([]complex128, g.slabElems()),
		out:        make([]complex128, g.slabElems()),
		chunkElems: chunkElems,
		busy:       make(chan struct{}, 1),
	}
	// The same per-pencil kernel calls, μ and radix chain as the
	// single-node plan, so the fleet's result is bitwise identical. B and
	// the output y-slab are private, so stages 1 and 3 scatter directly;
	// only the W² stores route through the network exchange.
	lanes := runtime.GOMAXPROCS(0)
	graph, err := stagegraph.Pencils{
		Pkg: "shard", Dims: []int{key.k, key.n, key.m},
		Plans: []*fft1d.Plan{stagegraph.Plan1D(key.k),
			stagegraph.Plan1D(key.n), stagegraph.Plan1D(key.m)},
		Mu: key.mu, BufferElems: max(bufferElems, 0), Lanes: lanes,
		Shards: key.sk, Index: key.index,
		Mid: []stagegraph.Array{{C: p.bMid}, {C: p.cPart, WriteC: p.writeExchange}},
	}.Build()
	if err != nil {
		return nil, err
	}
	front, back := graph.Cut(2)
	p.run, err = stagegraph.NewRunner(stagegraph.RunnerConfig{
		Pkg: "shard", Lanes: lanes,
	}, front, back)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *workerPlan) close() { p.run.Close() }

// allocSend gives a networked plan its per-peer send buffers.
func (p *workerPlan) allocSend() {
	p.send = make([][]complex128, p.g.sk)
	for v := range p.send {
		if v != p.index {
			p.send[v] = make([]complex128, p.g.peerShareElems())
		}
	}
}

// acquire takes exclusive ownership of the plan's buffers for one job.
func (p *workerPlan) acquire(ctx context.Context) error {
	select {
	case p.busy <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *workerPlan) releaseBusy() { <-p.busy }

// writeExchange is the stage-2 Dst hook: the W² scatter hands every store
// unit's run of μ-blocks here with its global C offset and stride, and the
// plan's exchange delivers each block to the shard that owns it.
func (p *workerPlan) writeExchange(off, stride int, run []complex128) { p.ex.write(off, stride, run) }

// exchange is the W² scatter's one seam. write takes a run of μ-blocks,
// block i at offset off + i·stride in the global C array, the shards' C
// pillars end to end (the W² store's stride is whole pillars, k·m): a
// block at offset o belongs to shard v = o / slabElems, at o − v·slabElems
// of its cPart. Lanes call write concurrently; every offset is written
// exactly once per run.
type exchange interface {
	write(off, stride int, run []complex128)
}

// write keeps this shard's own blocks in cPart and packs every other one
// into the compact per-peer send buffer; the chunk that fills up ships
// immediately, so the exchange overlaps the rest of the front graph. A
// run's blocks for one peer land in one chunk at a time, so its fill is
// counted once a chunk and its self-routed bytes once a run — not once a
// block, which made the shared counters the exchange's largest cost.
//
// The W² store's stride is whole pillars (k·m), so a run's blocks share
// one z-row and step q by a fixed number of pillars: the route of
// exchangeRoute, with its divisions, runs once a run, and a block pays one
// division for its shard and one for its chunk.
func (r *exchangeRouter) write(off, stride int, run []complex128) {
	p, g := r.plan, r.plan.g
	mu := g.mu
	if stride%(mu*g.k) != 0 {
		panic(fmt.Sprintf("shard: exchange run stride %d is not whole pillars of %d", stride, mu*g.k))
	}
	q, z := off/mu/g.k, off/mu%g.k
	dq, zl := stride/(mu*g.k), z-p.index*g.ksl
	var self int64
	pv, pidx, pend := -1, 0, 0 // the chunk the pending fill is for
	for b := 0; b < len(run); b, q = b+mu, q+dq {
		blk := run[b : b+mu]
		v := q / g.q
		qp := q - v*g.q // the pillar within shard v's share
		if v == p.index {
			local := (qp*g.k + z) * mu
			copy(p.cPart[local:local+mu], blk)
			self += int64(mu) * 16
			continue
		}
		compact := (qp*g.ksl + zl) * mu
		copy(p.send[v][compact:compact+mu], blk)
		if idx := compact / p.chunkElems; v != pv || idx != pidx {
			r.noteSend(pv, pidx, pend)
			pv, pidx, pend = v, idx, 0
		}
		pend += mu
	}
	r.noteSend(pv, pidx, pend)
	if self > 0 {
		r.recv.addRaw(self)
	}
}

// sendChunk identifies one outbound exchange chunk.
type sendChunk struct {
	peer, idx int
}

// exchangeRouter is one job's outbound exchange state: per-(peer, chunk)
// fill counters fed by concurrent data-worker stores, and a queue the
// sender pool drains as chunks complete. Every send element is written
// exactly once, so the store that completes a chunk enqueues it — no
// flush pass, no polling.
type exchangeRouter struct {
	plan  *workerPlan
	recv  *recvTracker // self-routed W² blocks count toward completion
	fill  [][]atomic.Int64
	queue chan sendChunk

	bytesSent  atomic.Int64
	chunksSent atomic.Int64

	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
	cancel  context.CancelFunc
}

func newExchangeRouter(p *workerPlan, recv *recvTracker) *exchangeRouter {
	r := &exchangeRouter{plan: p, recv: recv}
	total := 0
	r.fill = make([][]atomic.Int64, p.g.sk)
	for v := range r.fill {
		if p.send[v] == nil {
			continue
		}
		nchunks := (p.g.peerShareElems() + p.chunkElems - 1) / p.chunkElems
		r.fill[v] = make([]atomic.Int64, nchunks)
		total += nchunks
	}
	r.queue = make(chan sendChunk, total)
	return r
}

// chunkSpan returns chunk idx's [off, off+count) in compact elements.
func (r *exchangeRouter) chunkSpan(idx int) (off, count int) {
	off = idx * r.plan.chunkElems
	count = r.plan.chunkElems
	if rest := r.plan.g.peerShareElems() - off; rest < count {
		count = rest
	}
	return
}

// noteSend adds elems to the fill of peer v's chunk idx (nothing for v < 0)
// and queues the chunk when that completes it.
func (r *exchangeRouter) noteSend(v, idx, elems int) {
	if v < 0 {
		return
	}
	_, count := r.chunkSpan(idx)
	if r.fill[v][idx].Add(int64(elems)) == int64(count) {
		r.queue <- sendChunk{v, idx}
	}
}

// startSenders launches the sender pool. The first failed chunk cancels
// ctx (derived by the caller from the job deadline) so the whole run
// fails fast instead of waiting out the deadline. w records one send span
// per shipped chunk into the worker's trace ring when the job is traced
// (may be nil in direct router tests).
func (r *exchangeRouter) startSenders(ctx context.Context, cancel context.CancelFunc, n int, tr *transport, spec JobSpec, w *Worker) {
	r.cancel = cancel
	for i := 0; i < n; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for sc := range r.queue {
				off, count := r.chunkSpan(sc.idx)
				peer := spec.Workers[sc.peer]
				url := fmt.Sprintf("%s/shard/chunk?job=%s&kind=exchange&from=%d&off=%d&count=%d",
					peer, spec.Job, spec.Index, off, count)
				payload := wire.ComplexBytes(r.plan.send[sc.peer][off : off+count])
				start := time.Now()
				if err := tr.postChunk(ctx, "exchange", peer, url, payload); err != nil {
					r.fail(err)
					continue
				}
				if w != nil {
					w.span(spec, exchangeSpanName(spec.Index, sc.peer, off), start, time.Now())
				}
				r.bytesSent.Add(int64(len(payload)))
				r.chunksSent.Add(1)
				tr.metrics.ChunksSent.Add(1)
				tr.metrics.BytesSent.Add(int64(len(payload)))
			}
		}()
	}
}

func (r *exchangeRouter) fail(err error) {
	r.errOnce.Do(func() {
		r.err = err
		if r.cancel != nil {
			r.cancel()
		}
	})
}

// finish closes the queue (every chunk is enqueued once the front graph
// returns) and waits for the sender pool; returns the first send error.
func (r *exchangeRouter) finish() error {
	close(r.queue)
	r.wg.Wait()
	return r.err
}

// recvTracker counts settled inbound bytes — self-routed stores plus
// CRC-verified network chunks — toward a known total, deduplicating
// retransmitted chunks, and wakes the run when the last byte lands.
type recvTracker struct {
	mu   sync.Mutex
	want int64
	got  int64
	seen map[int64]bool
	done chan struct{}
}

func newRecvTracker(want int64) *recvTracker {
	return &recvTracker{want: want, seen: make(map[int64]bool), done: make(chan struct{})}
}

// addRaw credits bytes that cannot repeat (each written exactly once).
func (r *recvTracker) addRaw(n int64) {
	r.mu.Lock()
	r.credit(n)
	r.mu.Unlock()
}

// markChunk credits one network chunk, keyed for dedup; reports whether
// the chunk was new.
func (r *recvTracker) markChunk(key, n int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[key] {
		return false
	}
	r.seen[key] = true
	r.credit(n)
	return true
}

func (r *recvTracker) credit(n int64) {
	r.got += n
	if r.got == r.want {
		close(r.done)
	}
}

func (r *recvTracker) complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got == r.want
}

func (r *recvTracker) wait(ctx context.Context) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

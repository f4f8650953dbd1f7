package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/fft1d"
	"repro/internal/fft3d"
	"repro/internal/obs"
	"repro/internal/shard"
)

const (
	shardN       = 128
	shardWorkers = 2
)

// shardCounters is the slice of obs.ShardDefault the shard family reads,
// taken as deltas over a pass.
type shardCounters struct {
	scatter, gather, exchange, chunks, retries, waitNs int64
}

func readShardCounters() shardCounters {
	m := obs.ShardDefault
	return shardCounters{
		scatter: m.ScatterBytes.Load(), gather: m.GatherBytes.Load(),
		exchange: m.BytesSent.Load(), chunks: m.ChunksSent.Load(),
		retries: m.Retries.Load(), waitNs: m.ExchangeWaitNanos.Load(),
	}
}

// shard3dWL runs one 128³ transform at a time across an in-process loopback
// fleet of two workers (default options): scatter, the W² exchange and the
// gather all cross the loopback wire. An op is forward then inverse.
type shard3dWL struct {
	seed int64
	t    *xform // the same shape through the public API: the single-node baseline
	spec []complex128
	bk   []complex128
	// wantF/wantI are the unnormalised forward and inverse of the
	// single-node DoubleBuf plan the slab graphs mirror kernel call for
	// kernel call (fft3d's defaults, not the public API's split-format
	// ones): the sharded outputs must equal them bitwise.
	wantF, wantI []complex128
	cl           *shard.Cluster

	before shardCounters
}

func (w *shard3dWL) ref() *xform         { return w.t }
func (w *shard3dWL) clients() int        { return 1 }
func (w *shard3dWL) setupReps() int      { return 5 }
func (w *shard3dWL) bytesPerOp() float64 { return w.t.sh.bytesPerOp() }
func (w *shard3dWL) peakRSSMiB() float64 { return vmHWMMiB(os.Getpid()) }

func (w *shard3dWL) prepare(seed int64) error {
	w.seed = seed
	w.t = newXform(shape{"c3d", [3]int{shardN, shardN, shardN}}, seed)
	w.spec = make([]complex128, w.t.sh.elems())
	w.bk = make([]complex128, w.t.sh.elems())
	w.wantF = make([]complex128, w.t.sh.elems())
	w.wantI = make([]complex128, w.t.sh.elems())
	p, err := fft3d.NewPlan(shardN, shardN, shardN, fft3d.Options{Strategy: fft3d.DoubleBuf})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.Transform(w.wantF, w.t.x, fft1d.Forward); err != nil {
		return err
	}
	return p.Transform(w.wantI, w.wantF, fft1d.Inverse)
}

// transform is one Coordinator.Transform (unnormalised, like the wire).
func (w *shard3dWL) transform(dst, src []complex128, sign int, rec *recorder, parent, op int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h := rec.begin("transform", parent, op)
	t0 := time.Now()
	err := w.cl.Coord.Transform(ctx, dst, src, shardN, shardN, shardN, sign)
	d := time.Since(t0)
	rec.end(h)
	return d, err
}

// roundTrip is the op: forward into spec, inverse into bk.
func (w *shard3dWL) roundTrip(rec *recorder, parent, op int) (time.Duration, error) {
	df, err := w.transform(w.spec, w.t.x, fft1d.Forward, rec, parent, op)
	if err != nil {
		return 0, err
	}
	di, err := w.transform(w.bk, w.spec, fft1d.Inverse, rec, parent, op)
	if err != nil {
		return 0, err
	}
	return df + di, nil
}

// verify compares both outputs of the last op bitwise with the single-node
// plan's, then applies the 1/N the wire leaves out and checks the round trip.
func (w *shard3dWL) verify() error {
	if i := firstDiff(w.spec, w.wantF); i >= 0 {
		return fmt.Errorf("sharded forward differs from the single-node plan at element %d", i)
	}
	if i := firstDiff(w.bk, w.wantI); i >= 0 {
		return fmt.Errorf("sharded inverse differs from the single-node plan at element %d", i)
	}
	fft1d.Scale(w.bk, 1/float64(len(w.bk)))
	if e := maxRelErr(w.bk, w.t.x); !(e <= roundTripTol) {
		return fmt.Errorf("round-trip max relative error %.3g > %.0e", e, roundTripTol)
	}
	return nil
}

func (w *shard3dWL) setup() (time.Duration, error) {
	t0 := time.Now()
	cl, err := shard.StartCluster(shardWorkers, shard.WorkerOptions{}, shard.CoordinatorOptions{})
	if err != nil {
		return 0, err
	}
	w.cl = cl
	if _, err := w.roundTrip(nil, -1, 0); err != nil {
		return 0, err
	}
	d := time.Since(t0)

	w.t.close()
	if _, err := w.t.firstRoundTrip(w.seed); err != nil {
		return d, fmt.Errorf("single-node plan: %w", err)
	}
	if err := w.verify(); err != nil {
		return d, err
	}
	w.before = readShardCounters()
	return d, nil
}

func (w *shard3dWL) op(c, n int, rec *recorder) (time.Duration, error) {
	h := rec.begin("op", -1, n)
	d, err := w.roundTrip(rec, h, n)
	rec.end(h)
	if err != nil {
		return d, err
	}
	return d, w.verify()
}

func (w *shard3dWL) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	w.t.close()
}

// layers reads the shard family off a traced pass: `transform` spans, the
// process-wide shard counters as deltas per op, and the single-node plan
// timed on the same input.
func (w *shard3dWL) layers(m metrics, p *pass) {
	after := readShardCounters()
	ops := float64(p.ok())
	m["shard.scatter_bytes_per_op"] = ratio(float64(after.scatter-w.before.scatter), ops)
	m["shard.gather_bytes_per_op"] = ratio(float64(after.gather-w.before.gather), ops)
	m["shard.exchange_bytes_per_op"] = ratio(float64(after.exchange-w.before.exchange), ops)
	m["shard.chunks_per_op"] = ratio(float64(after.chunks-w.before.chunks), ops)
	m["shard.retries_per_op"] = ratio(float64(after.retries-w.before.retries), ops)
	busy := total(p.lat) + total(p.tracedLat)
	m["shard.exchange_wait_share"] = ratio(float64(after.waitNs-w.before.waitNs), shardWorkers*float64(busy))
	m["shard.straggler_ratio"] = obs.ShardDefault.StragglerRatio()

	sharded := median(spanDurations(p.recs, "transform"))
	var single []float64
	for i := 0; i < 5; i++ {
		fwd, inv, err := w.t.roundTrip(nil, -1, 0)
		if err != nil {
			return
		}
		single = append(single, ms(fwd), ms(inv))
	}
	m["shard.transform_ms_p50"] = sharded
	m["shard.single_node_ms_p50"] = median(single)
	m["shard.speed_ratio"] = ratio(median(single), sharded)
}

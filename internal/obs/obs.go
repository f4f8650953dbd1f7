// Package obs is the always-on bandwidth-accounting telemetry layer. The
// paper states its whole claim in observability terms — fraction of the
// machine's achievable STREAM peak sustained per stage (Figs. 1, 9–11) — so
// every stage-graph executor carries a Collector that attributes, per stage:
// bytes loaded and stored, worker-summed op time, effective GB/s, fraction
// of the active machine description's STREAM peak, steady-state overlap
// occupancy (the fraction of schedule steps in which data and compute were
// simultaneously busy), and cumulative worker barrier-wait time. Each is
// comparable against internal/perfmodel's per-stage prediction, so a
// degenerate schedule shows up as measured/predicted divergence rather than
// merely slow ns/op.
//
// The hot path is lock-free: every worker owns a padded shard of atomic
// counters indexed by (stage, op), so recording one op is three atomic adds
// on a cache line no other worker writes. Snapshot merges the shards.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Op indexes a shard's counters. The values deliberately mirror
// trace.Op (Load=0, Compute=1, Store=2) so executors can convert directly.
type Op int

const (
	Load Op = iota
	Compute
	Store
	numOps
)

// shardAlign separates consecutive shards' counters by at least one cache
// line so workers never false-share.
const shardAlign = 64

// Shard is one worker's private slice of counters. Only that worker writes
// it; Snapshot reads it with atomic loads.
type Shard struct {
	// bytes/ns/ops are indexed stage*numOps+op.
	bytes []atomic.Uint64
	ns    []atomic.Uint64
	ops   []atomic.Uint64

	barrierNs atomic.Uint64

	_ [shardAlign]byte //nolint:unused // padding against false sharing
}

// Add records one completed op: b bytes moved (0 for compute) in d.
func (s *Shard) Add(stage int, op Op, b int, d time.Duration) {
	if s == nil {
		return
	}
	i := stage*int(numOps) + int(op)
	if b > 0 {
		s.bytes[i].Add(uint64(b))
	}
	if d > 0 {
		s.ns[i].Add(uint64(d))
	}
	s.ops[i].Add(1)
}

// AddBarrier accumulates time this worker spent parked at step barriers.
func (s *Shard) AddBarrier(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.barrierNs.Add(uint64(d))
}

// StagePrediction is perfmodel's per-stage forecast attached to a
// collector: seconds of data movement and compute per run.
type StagePrediction struct {
	DataSec    float64
	ComputeSec float64
	Sec        float64 // modeled stage total (max × fill factor)
}

// Collector aggregates telemetry for one plan's executor. Create it with
// the stage names at plan time, hand the shards to the executor's workers,
// and read merged results with Snapshot.
type Collector struct {
	stageNames     []string
	dataWorkers    int
	computeWorkers int

	shards []*Shard // dataWorkers data shards, then computeWorkers compute shards

	runs      atomic.Uint64
	steps     atomic.Uint64 // total schedule steps across runs
	bothBusy  atomic.Uint64 // steps where data and compute were both scheduled
	wallNs    atomic.Uint64
	lastOccup atomic.Uint64 // float64 bits of the most recent run's occupancy

	prefaultNs    atomic.Uint64
	prefaultBytes atomic.Uint64

	mu        sync.Mutex // cold fields below
	roofline  float64    // STREAM peak GB/s; 0 = unknown
	predicted []StagePrediction
}

// NewCollector builds a collector for a graph with the given stage names
// executed by dataWorkers + computeWorkers workers.
func NewCollector(dataWorkers, computeWorkers int, stageNames []string) *Collector {
	if dataWorkers < 1 {
		dataWorkers = 1
	}
	if computeWorkers < 1 {
		computeWorkers = 1
	}
	c := &Collector{
		stageNames:     append([]string(nil), stageNames...),
		dataWorkers:    dataWorkers,
		computeWorkers: computeWorkers,
		shards:         make([]*Shard, dataWorkers+computeWorkers),
	}
	n := len(stageNames) * int(numOps)
	for i := range c.shards {
		c.shards[i] = &Shard{
			bytes: make([]atomic.Uint64, n),
			ns:    make([]atomic.Uint64, n),
			ops:   make([]atomic.Uint64, n),
		}
	}
	return c
}

// DataShard returns data worker i's shard (nil-safe on a nil collector).
func (c *Collector) DataShard(i int) *Shard {
	if c == nil || i < 0 || i >= c.dataWorkers {
		return nil
	}
	return c.shards[i]
}

// ComputeShard returns compute worker i's shard (nil-safe).
func (c *Collector) ComputeShard(i int) *Shard {
	if c == nil || i < 0 || i >= c.computeWorkers {
		return nil
	}
	return c.shards[c.dataWorkers+i]
}

// Stages returns the number of stages the collector was built for.
func (c *Collector) Stages() int {
	if c == nil {
		return 0
	}
	return len(c.stageNames)
}

// RunDone records one completed schedule replay: its step count, the number
// of steps in which data and compute were both scheduled, and the wall time.
func (c *Collector) RunDone(steps, bothBusy int, wall time.Duration) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	c.steps.Add(uint64(steps))
	c.bothBusy.Add(uint64(bothBusy))
	if wall > 0 {
		c.wallNs.Add(uint64(wall))
	}
	if steps > 0 {
		c.lastOccup.Store(floatBits(float64(bothBusy) / float64(steps)))
	}
}

// AddPrefault records one pre-fault of a cold store target: b bytes made
// resident in d, before a run's schedule started.
func (c *Collector) AddPrefault(b int, d time.Duration) {
	if c == nil {
		return
	}
	c.prefaultBytes.Add(uint64(b))
	if d > 0 {
		c.prefaultNs.Add(uint64(d))
	}
}

// SetRoofline sets the STREAM peak (GB/s) stage bandwidth is normalized
// against; 0 leaves FracPeak unset.
func (c *Collector) SetRoofline(gbs float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.roofline = gbs
	c.mu.Unlock()
}

// Roofline returns the configured STREAM peak (0 = unknown).
func (c *Collector) Roofline() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roofline
}

// SetPredicted attaches perfmodel's per-stage forecast; the slice must be
// indexed like the collector's stages (extra or missing entries are
// tolerated and simply not compared).
func (c *Collector) SetPredicted(p []StagePrediction) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.predicted = append([]StagePrediction(nil), p...)
	c.mu.Unlock()
}

// OpStats is the merged view of one (stage, op) counter set.
type OpStats struct {
	Bytes uint64 `json:"bytes"`
	Ns    uint64 `json:"ns"` // summed across the role's workers
	Ops   uint64 `json:"ops"`
	// GBs is the effective rate: bytes over the mean per-worker busy time
	// of the role (bytes·workers/ns). Zero when nothing ran.
	GBs float64 `json:"gb_per_s"`
}

// StageSnapshot is the merged per-stage telemetry.
type StageSnapshot struct {
	Name  string  `json:"name"`
	Load  OpStats `json:"load"`
	Store OpStats `json:"store"`

	ComputeNs  uint64 `json:"compute_ns"`
	ComputeOps uint64 `json:"compute_ops"`

	// GBs is the stage's combined effective data bandwidth
	// (load+store bytes over mean data-worker busy time). A folded load —
	// bytes with no load time, read by the compute op — adds no bytes here.
	GBs float64 `json:"gb_per_s"`
	// FracPeak is GBs over the roofline (0 when the roofline is unknown).
	FracPeak float64 `json:"frac_peak"`

	// MeasuredDataSec / MeasuredComputeSec are mean per-run, per-worker
	// seconds spent in the stage's ops.
	MeasuredDataSec    float64 `json:"measured_data_sec"`
	MeasuredComputeSec float64 `json:"measured_compute_sec"`
	// Predicted* mirror perfmodel's StageCost (zero when no model was
	// attached); DataDivergence is measured/predicted data seconds — the
	// "is the schedule degenerate" ratio (1 = model-perfect, ≫1 = lost
	// bandwidth).
	PredictedDataSec    float64 `json:"predicted_data_sec,omitempty"`
	PredictedComputeSec float64 `json:"predicted_compute_sec,omitempty"`
	PredictedSec        float64 `json:"predicted_sec,omitempty"`
	DataDivergence      float64 `json:"data_divergence,omitempty"`
}

// Snapshot is a point-in-time merge of a collector's shards.
type Snapshot struct {
	Runs           uint64 `json:"runs"`
	DataWorkers    int    `json:"data_workers"`
	ComputeWorkers int    `json:"compute_workers"`

	Steps         uint64 `json:"steps"`
	BothBusySteps uint64 `json:"both_busy_steps"`
	// OverlapOccupancy is the cumulative fraction of schedule steps in
	// which a data op and a compute op were both scheduled — the
	// steady-state overlap the paper's Table II pipelining buys. A fused
	// S-stage graph approaches iters/(iters+S+1); an unfused one is
	// strictly lower.
	OverlapOccupancy float64 `json:"overlap_occupancy"`
	// LastRunOccupancy is the most recent run's occupancy alone.
	LastRunOccupancy float64 `json:"last_run_occupancy"`

	WallNs        uint64  `json:"wall_ns"`
	BarrierWaitNs uint64  `json:"barrier_wait_ns"` // summed across all workers
	RooflineGBs   float64 `json:"roofline_gb_per_s,omitempty"`

	// PrefaultNs and PrefaultBytes are the runs' first touch: the time and
	// bytes of pre-faulting the cold arrays a graph's streaming stores were
	// about to write (stagegraph.Runner.Run), summed over runs. The
	// pre-fault runs before the schedule, so WallNs does not include it.
	PrefaultNs    uint64 `json:"prefault_ns"`
	PrefaultBytes uint64 `json:"prefault_bytes"`
	// Build is where the plan's construction time went (zero for a plan
	// that does not report one).
	Build Build `json:"build"`

	Stages []StageSnapshot `json:"stages"`
}

// Build is a plan's construction budget, one line per part of
// core.NewPlan. The parts run one after another, so the lines sum to at
// most the constructor's wall time.
type Build struct {
	// SubPlansNs is the per-axis 1D plans. They are cached process-wide and
	// build their twiddle tables on first use, so a cold size pays its
	// tables in the first transform, not here.
	SubPlansNs uint64 `json:"sub_plans_ns"`
	// AllocNs is the middle arrays: a complex plan's work array, a real
	// plan's two scratch arrays. Allocating them touches no page; the first
	// run's pre-fault does (Snapshot.PrefaultNs).
	AllocNs uint64 `json:"alloc_ns"`
	// GraphNs is the stage graphs, their compiled schedules, the double
	// buffer, the telemetry collectors and the worker team.
	GraphNs uint64 `json:"graph_ns"`
	// ModelNs is the roofline and the perfmodel prediction.
	ModelNs uint64 `json:"model_ns"`
}

// TotalBytes returns the bytes moved across all stages (loads + stores).
func (s Snapshot) TotalBytes() uint64 {
	var t uint64
	for _, st := range s.Stages {
		t += st.Load.Bytes + st.Store.Bytes
	}
	return t
}

// Snapshot merges the shards. Safe to call concurrently with recording;
// counters from an in-flight run may be partially included.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	roofline := c.roofline
	predicted := c.predicted
	c.mu.Unlock()

	snap := Snapshot{
		Runs:             c.runs.Load(),
		DataWorkers:      c.dataWorkers,
		ComputeWorkers:   c.computeWorkers,
		Steps:            c.steps.Load(),
		BothBusySteps:    c.bothBusy.Load(),
		WallNs:           c.wallNs.Load(),
		RooflineGBs:      roofline,
		LastRunOccupancy: floatFromBits(c.lastOccup.Load()),
		PrefaultNs:       c.prefaultNs.Load(),
		PrefaultBytes:    c.prefaultBytes.Load(),
		Stages:           make([]StageSnapshot, len(c.stageNames)),
	}
	if snap.Steps > 0 {
		snap.OverlapOccupancy = float64(snap.BothBusySteps) / float64(snap.Steps)
	}
	for _, sh := range c.shards {
		snap.BarrierWaitNs += sh.barrierNs.Load()
	}
	for st := range snap.Stages {
		out := &snap.Stages[st]
		out.Name = c.stageNames[st]
		for op := Op(0); op < numOps; op++ {
			i := st*int(numOps) + int(op)
			var b, ns, ops uint64
			for _, sh := range c.shards {
				b += sh.bytes[i].Load()
				ns += sh.ns[i].Load()
				ops += sh.ops[i].Load()
			}
			switch op {
			case Load:
				out.Load = opStats(b, ns, ops, c.dataWorkers)
			case Store:
				out.Store = opStats(b, ns, ops, c.dataWorkers)
			case Compute:
				out.ComputeNs, out.ComputeOps = ns, ops
			}
		}
		if dataNs := out.Load.Ns + out.Store.Ns; dataNs > 0 {
			out.GBs = rate(timedBytes(out.Load)+timedBytes(out.Store), dataNs, c.dataWorkers)
			if roofline > 0 {
				out.FracPeak = out.GBs / roofline
			}
		}
		if snap.Runs > 0 {
			runs := float64(snap.Runs)
			out.MeasuredDataSec = float64(out.Load.Ns+out.Store.Ns) / float64(c.dataWorkers) / runs / 1e9
			out.MeasuredComputeSec = float64(out.ComputeNs) / float64(c.computeWorkers) / runs / 1e9
		}
		if st < len(predicted) {
			p := predicted[st]
			out.PredictedDataSec = p.DataSec
			out.PredictedComputeSec = p.ComputeSec
			out.PredictedSec = p.Sec
			if p.DataSec > 0 && out.MeasuredDataSec > 0 {
				out.DataDivergence = out.MeasuredDataSec / p.DataSec
			}
		}
	}
	return snap
}

// timedBytes is what an op's bytes contribute to a rate: nothing when the op
// recorded no time — a load folded into the compute op's first sweep counts
// its bytes exactly but has no duration of its own to divide them by.
func timedBytes(o OpStats) uint64 {
	if o.Ns == 0 {
		return 0
	}
	return o.Bytes
}

func opStats(b, ns, ops uint64, workers int) OpStats {
	s := OpStats{Bytes: b, Ns: ns, Ops: ops}
	if ns > 0 {
		s.GBs = rate(b, ns, workers)
	}
	return s
}

// rate converts bytes over worker-summed nanoseconds into GB/s against the
// role's mean per-worker busy time: B·workers/ns (B/ns ≡ GB/s).
func rate(b, ns uint64, workers int) float64 {
	if ns == 0 {
		return 0
	}
	return float64(b) * float64(workers) / float64(ns)
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }

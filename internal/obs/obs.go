// Package obs is the always-on bandwidth-accounting telemetry layer. The
// paper states its whole claim in observability terms — fraction of the
// machine's achievable STREAM peak sustained per stage (Figs. 1, 9–11) — so
// every plan's stage graph carries a Collector that attributes, per stage:
// bytes loaded and stored, lane-summed op time, effective GB/s over the
// busiest lane's time, fraction of the configured STREAM peak, and, per
// lane, the time in ops and the time waiting at stage barriers.
//
// The hot path is lock-free: every lane owns a padded shard of atomic
// counters indexed by (stage, op), so recording one op is three atomic adds
// on a cache line no other lane writes. Snapshot merges the shards.
package obs

import (
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
// line so lanes never false-share.
const shardAlign = 64

// Shard is one lane's private slice of counters. Only that lane writes it;
// Snapshot reads it with atomic loads.
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

// AddBarrier accumulates time this lane spent waiting at stage barriers (and
// for the run to reach it).
func (s *Shard) AddBarrier(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.barrierNs.Add(uint64(d))
}

// Collector aggregates telemetry for one graph of a plan. Create it with
// the stage names at plan time, hand the shards to the lanes of each run,
// and read merged results with Snapshot.
type Collector struct {
	stageNames []string
	shards     []*Shard // one per lane

	runs   atomic.Uint64
	blocks atomic.Uint64 // blocks run, over all stages and runs
	wallNs atomic.Uint64

	prefaultNs    atomic.Uint64
	prefaultBytes atomic.Uint64

	roofline float64 // STREAM peak GB/s; 0 = unknown
}

// NewCollector builds a collector for a graph with the given stage names
// executed on the given number of lanes, normalising stage bandwidth
// against a STREAM peak of rooflineGBs (0 leaves FracPeak unreported).
func NewCollector(lanes int, stageNames []string, rooflineGBs float64) *Collector {
	c := &Collector{
		stageNames: append([]string(nil), stageNames...),
		shards:     make([]*Shard, max(lanes, 1)),
		roofline:   rooflineGBs,
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

// Shard returns lane i's shard (nil-safe on a nil collector).
func (c *Collector) Shard(i int) *Shard {
	if c == nil || i < 0 || i >= len(c.shards) {
		return nil
	}
	return c.shards[i]
}

// Stages returns the number of stages the collector was built for.
func (c *Collector) Stages() int {
	if c == nil {
		return 0
	}
	return len(c.stageNames)
}

// RunDone records one completed run: the blocks it ran and its wall time.
func (c *Collector) RunDone(blocks int, wall time.Duration) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	c.blocks.Add(uint64(blocks))
	if wall > 0 {
		c.wallNs.Add(uint64(wall))
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

// OpStats is the merged view of one (stage, op) counter set.
type OpStats struct {
	Bytes uint64 `json:"bytes"`
	Ns    uint64 `json:"ns"` // summed across the lanes
	Ops   uint64 `json:"ops"`
	// GBs is the effective rate: bytes over the busiest lane's time in the
	// op. Lanes split a stage's blocks, so the stage's op took as long as
	// its busiest lane — one lane alone when the stage has one block. Zero
	// when nothing ran.
	GBs float64 `json:"gb_per_s"`
}

// StageSnapshot is the merged per-stage telemetry.
type StageSnapshot struct {
	Name  string  `json:"name"`
	Load  OpStats `json:"load"`
	Store OpStats `json:"store"`

	ComputeNs  uint64 `json:"compute_ns"`
	ComputeOps uint64 `json:"compute_ops"`

	// GBs is the stage's combined effective data bandwidth (load+store
	// bytes over the busiest lane's load+store time). A folded load — bytes
	// with no load time, read by the compute op — adds no bytes here.
	GBs float64 `json:"gb_per_s"`
	// FracPeak is GBs over the roofline (0 when the roofline is unknown).
	FracPeak float64 `json:"frac_peak"`

	// MeasuredDataSec / MeasuredComputeSec are the busiest lane's
	// seconds in the stage's ops, per run.
	MeasuredDataSec    float64 `json:"measured_data_sec"`
	MeasuredComputeSec float64 `json:"measured_compute_sec"`
}

// Snapshot is a point-in-time merge of a collector's shards.
type Snapshot struct {
	Runs uint64 `json:"runs"`
	// DataWorkers and ComputeWorkers both read the lane count, and
	// BothBusySteps reads 0: a lane runs every op itself, one block at a
	// time. Steps is the blocks run, over every stage and run. The four
	// stay for the readers of the former role-split schedule's fields.
	DataWorkers    int    `json:"data_workers"`
	ComputeWorkers int    `json:"compute_workers"`
	Steps          uint64 `json:"steps"`
	BothBusySteps  uint64 `json:"both_busy_steps"`

	// WallNs is the runs' wall time, each from its start until its last
	// lane leaves the last stage barrier.
	WallNs uint64 `json:"wall_ns"`
	// BarrierWaitNs is the lanes' summed wait: from a run's start until a
	// lane wakes, at every stage barrier, and from the lane's end to the
	// run's. With each lane's op time it tiles the wall exactly.
	BarrierWaitNs uint64  `json:"barrier_wait_ns"`
	RooflineGBs   float64 `json:"roofline_gb_per_s,omitempty"`
	// Lanes is each lane's share of the runs.
	Lanes []LaneSnapshot `json:"lanes"`

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

// LaneSnapshot is one lane's time over the runs: in its load, compute and
// store ops, and waiting (Snapshot.BarrierWaitNs).
type LaneSnapshot struct {
	LegNs         uint64 `json:"leg_ns"`
	BarrierWaitNs uint64 `json:"barrier_wait_ns"`
}

// Build is a plan's construction budget, one line per part of
// core.NewPlan. The parts run one after another, so the lines sum to at
// most the constructor's wall time.
type Build struct {
	// SubPlansNs is the per-axis 1D plans. They are cached process-wide and
	// build their twiddle tables on first use, so a cold size pays its
	// tables in the first transform, not here.
	SubPlansNs uint64 `json:"sub_plans_ns"`
	// GraphNs is the stage graphs, the runner and the telemetry
	// collectors. A plan allocates no middle array and no lane: its runs
	// lease them (stagegraph.Runner.Run), and a fresh array's first touch
	// is in Snapshot.PrefaultNs.
	GraphNs uint64 `json:"graph_ns"`
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
	roofline := c.roofline

	lanes := len(c.shards)
	snap := Snapshot{
		Runs:           c.runs.Load(),
		DataWorkers:    lanes,
		ComputeWorkers: lanes,
		Steps:          c.blocks.Load(),
		WallNs:         c.wallNs.Load(),
		RooflineGBs:    roofline,
		PrefaultNs:     c.prefaultNs.Load(),
		PrefaultBytes:  c.prefaultBytes.Load(),
		Lanes:          make([]LaneSnapshot, lanes),
		Stages:         make([]StageSnapshot, len(c.stageNames)),
	}
	for i, sh := range c.shards {
		l := &snap.Lanes[i]
		l.BarrierWaitNs = sh.barrierNs.Load()
		for j := range sh.ns {
			l.LegNs += sh.ns[j].Load()
		}
		snap.BarrierWaitNs += l.BarrierWaitNs
	}
	for st := range snap.Stages {
		out := &snap.Stages[st]
		out.Name = c.stageNames[st]
		// The busiest lane's ns in each op, and in load + store together.
		var busiest [numOps]uint64
		var busiestData uint64
		for _, sh := range c.shards {
			var lane [numOps]uint64
			for op := Op(0); op < numOps; op++ {
				lane[op] = sh.ns[st*int(numOps)+int(op)].Load()
				busiest[op] = max(busiest[op], lane[op])
			}
			busiestData = max(busiestData, lane[Load]+lane[Store])
		}
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
				out.Load = OpStats{Bytes: b, Ns: ns, Ops: ops, GBs: rate(b, busiest[op])}
			case Store:
				out.Store = OpStats{Bytes: b, Ns: ns, Ops: ops, GBs: rate(b, busiest[op])}
			case Compute:
				out.ComputeNs, out.ComputeOps = ns, ops
			}
		}
		out.GBs = rate(timedBytes(out.Load)+timedBytes(out.Store), busiestData)
		if roofline > 0 {
			out.FracPeak = out.GBs / roofline
		}
		if snap.Runs > 0 {
			runs := float64(snap.Runs)
			out.MeasuredDataSec = float64(busiestData) / runs / 1e9
			out.MeasuredComputeSec = float64(busiest[Compute]) / runs / 1e9
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

// rate converts bytes over nanoseconds into GB/s (B/ns ≡ GB/s); 0 when no
// time was recorded.
func rate(b, ns uint64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(b) / float64(ns)
}

package stagegraph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunnerConfig sizes a Runner.
type RunnerConfig struct {
	// Pkg prefixes the runner's own errors ("fft2d: plan closed").
	Pkg string
	// Labels[i] registers graph i's telemetry collector in obs.Default
	// under that name; a missing or empty label runs the graph without a
	// collector.
	Labels []string
	// Lanes is the lane count; zero means one.
	Lanes int
	// Tracer records pipeline events unless a Call brings its own.
	Tracer *trace.Recorder
	// Roofline is the STREAM peak the collectors normalise stage bandwidth
	// against, in GB/s; zero leaves it unknown.
	Roofline float64
}

// Call is one run's bindings.
type Call struct {
	// In and Out are the caller's source and destination arrays.
	In, Out Endpoint
	// Sign is the transform direction, fft1d.Forward or fft1d.Inverse; Run
	// refuses any other value.
	Sign int
	// Scale, when non-zero, multiplies the result (the 1/N of a normalised
	// inverse): on the way out of the last stage's run-major or fold store,
	// else in that stage's compute leg — bitwise fft1d.Scale over Out
	// afterwards either way.
	Scale float64
	// Count is the row count of a batch graph's call.
	Count int
	// Tracer overrides the runner's for this call.
	Tracer *trace.Recorder
}

// Runner is the execution state a plan owns: N built graphs with their
// telemetry collectors. Per call only the caller's endpoints, the leased
// lane team and work array, the direction and the scale are patched in, so
// a reused plan's transform rebuilds nothing, spawns no goroutines and
// performs no heap allocations; between runs it holds no lane and no array.
//
// Runs serialise on the runner's lock; independent runners run in parallel,
// each on a team of its own. A run a lane panicked in breaks the runner:
// later runs fail fast. Close is idempotent and safe to call concurrently
// with a run in flight — it waits for the run; later runs fail. Runners
// dropped without Close are closed by a finalizer.
type Runner struct {
	cfg      RunnerConfig
	lanes    int
	prefault bool // false only under Ablation.NoPrefault
	graphs   []*compiled
	build    obs.Build

	lock   sync.Mutex
	closed bool
	broken error // the panic that broke the runner
}

type compiled struct {
	*Graph
	obs   *obs.Collector
	unreg func()
}

// NewRunner registers the graphs' collectors and counts the runner live in
// the engine until Close.
func NewRunner(cfg RunnerConfig, graphs ...*Graph) (*Runner, error) {
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("stagegraph: need ≥ 1 lane, got %d", cfg.Lanes)
	}
	lanes := max(cfg.Lanes, 1)
	r := &Runner{cfg: cfg, lanes: lanes, prefault: !current().NoPrefault}
	for i, g := range graphs {
		c := &compiled{Graph: g}
		if i < len(cfg.Labels) && cfg.Labels[i] != "" {
			names := make([]string, len(g.stages))
			for j := range g.stages {
				names[j] = g.stages[j].Name
			}
			c.obs = obs.NewCollector(lanes, names, cfg.Roofline)
			_, c.unreg = obs.Default.Register(cfg.Labels[i], c.obs)
		}
		r.graphs = append(r.graphs, c)
	}
	eng.open()
	runtime.SetFinalizer(r, (*Runner).Close)
	return r, nil
}

func (r *Runner) unregister() {
	for _, c := range r.graphs {
		if c.unreg != nil {
			c.unreg()
			c.unreg = nil
		}
	}
}

// Close unregisters the collectors and uncounts the runner in the engine.
func (r *Runner) Close() {
	r.lock.Lock()
	defer r.lock.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	runtime.SetFinalizer(r, nil)
	r.unregister()
	eng.close()
}

// Run executes graph g with the call's bindings.
func (r *Runner) Run(g int, c Call) error {
	if c.Sign != fft1d.Forward && c.Sign != fft1d.Inverse {
		return fmt.Errorf("%s: sign %d, need %d or %d", r.cfg.Pkg, c.Sign, fft1d.Forward, fft1d.Inverse)
	}
	r.lock.Lock()
	defer r.lock.Unlock()
	if r.closed {
		return fmt.Errorf("%s: plan closed", r.cfg.Pkg)
	}
	if r.broken != nil {
		return fmt.Errorf("%s: plan broken by an earlier panic: %v", r.cfg.Pkg, r.broken)
	}
	gr := r.graphs[g]
	stages := gr.stages
	gr.dir.sign, gr.dir.scale = c.Sign, c.Scale
	if gr.scaleInStore {
		gr.dir.scale = 0
		stages[len(stages)-1].StoreScale = c.Scale
	}
	for i := range stages {
		if stages[i].StoreRadix != 0 {
			stages[i].StoreSign = c.Sign
		}
	}
	if gr.batch {
		// One stage over this call's rows, cut into the fewest uniform
		// blocks that gives every lane one (one a row for fewer rows than
		// lanes), so the lanes share the batch. The lanes' buffers grow
		// when a larger block than ever before arrives.
		st := &stages[0]
		st.Iters = smallestDivisorAtLeast(c.Count, r.lanes)
		st.Units = c.Count / st.Iters
		if st.StoreUnits != 0 {
			st.StoreUnits = st.Units
		}
	}
	team, work := eng.team(r.lanes), eng.lease(gr.workLen())
	gr.bind(c.In, c.Out, work)
	if r.prefault {
		gr.prefaultCold()
	}
	rec := c.Tracer
	if rec == nil {
		rec = r.cfg.Tracer
	}
	err := team.Run(stages, gr.obs, rec)
	gr.bind(Endpoint{}, Endpoint{}, nil)
	eng.put(work)
	if !team.usable() {
		r.broken = err
	}
	eng.putTeam(team)
	return err
}

// prefaultCold pre-faults every array a streaming stage of the bound graph
// is about to store into — the leased work array's parts and the caller's
// destination — whose first page is not yet resident. A page fault inside a
// streaming store leg stalls the stream while the kernel zeroes the page
// through the cache; one madvise over the whole array ahead of the run
// moves that work out of the stores, which then run at the warm rate.
// Cached stores (arrays within the footprint rule) and pair-packed real
// destinations never stream, so they are never pre-faulted; neither is an
// array that is already warm, which costs one mincore a streaming stage.
// Where the kernel refuses the pre-fault (before Linux 5.14) the stores
// fault the pages in as they land, as they would without it.
func (g *compiled) prefaultCold() {
	for i := range g.stages {
		st := &g.stages[i]
		dst := st.Dst.C
		if !st.NonTemporal || dst == nil || !layout.Cold(dst) {
			continue
		}
		t0 := time.Now()
		if layout.Prefault(dst) == nil {
			g.obs.AddPrefault(len(dst)*complexBytes, time.Since(t0))
		}
	}
}

// SetBuild records the plan's construction budget, which Observability
// reports.
func (r *Runner) SetBuild(b obs.Build) { r.build = b }

// Mu returns graph 0's effective block length.
func (r *Runner) Mu() int {
	return r.graphs[0].mu
}

// Iters returns the pipeline iteration count of each stage of graph g.
func (r *Runner) Iters(g int) []int {
	iters := make([]int, len(r.graphs[g].stages))
	for i := range iters {
		iters[i] = r.graphs[g].stages[i].Iters
	}
	return iters
}

// Lanes returns the lane count the runner's graphs run on.
func (r *Runner) Lanes() int { return r.lanes }

// Obs returns graph g's live telemetry collector (nil without a label).
func (r *Runner) Obs(g int) *obs.Collector {
	return r.graphs[g].obs
}

// Observability returns the bandwidth-accounting snapshot of every run so
// far, merged over the graphs (stage lists concatenated, counters summed).
func (r *Runner) Observability() obs.Snapshot {
	out := r.graphs[0].obs.Snapshot()
	out.Build = r.build
	for _, c := range r.graphs[1:] {
		b := c.obs.Snapshot()
		out.Runs += b.Runs
		out.PrefaultNs += b.PrefaultNs
		out.PrefaultBytes += b.PrefaultBytes
		out.Steps += b.Steps
		out.WallNs += b.WallNs
		out.BarrierWaitNs += b.BarrierWaitNs
		out.Lanes = slices.Clone(out.Lanes)
		for i := range out.Lanes {
			out.Lanes[i].LegNs += b.Lanes[i].LegNs
			out.Lanes[i].BarrierWaitNs += b.Lanes[i].BarrierWaitNs
		}
		out.Stages = append(append([]obs.StageSnapshot(nil), out.Stages...), b.Stages...)
	}
	return out
}

// DescribeGraph renders the compiled graphs with each stage's current
// store mode.
func (r *Runner) DescribeGraph() string {
	r.lock.Lock()
	defer r.lock.Unlock()
	s := ""
	for _, c := range r.graphs {
		s += Describe(c.stages)
	}
	return s
}

// NonTemporalStages reports how many stages currently route stores through
// the streaming tier.
func (r *Runner) NonTemporalStages() int {
	r.lock.Lock()
	defer r.lock.Unlock()
	nt := 0
	for _, c := range r.graphs {
		for i := range c.stages {
			if c.stages[i].NonTemporal {
				nt++
			}
		}
	}
	return nt
}

// ScalesInStore reports whether graph g applies a run's Scale on the way out
// of its last stage's run-major or fold store — no sweep in any leg — rather
// than in that stage's compute leg.
func (r *Runner) ScalesInStore(g int) bool { return r.graphs[g].scaleInStore }

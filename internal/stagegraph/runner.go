package stagegraph

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/fft1d"
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
	// DataWorkers (p_d) and ComputeWorkers (p_c); zero means one.
	DataWorkers    int
	ComputeWorkers int
	// Tracer records pipeline events unless a Call brings its own.
	Tracer *trace.Recorder
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
// compiled schedules and telemetry collectors, sharing one double buffer
// and one persistent executor. Graphs and schedules compile once here; per
// call only the caller's endpoints, the direction and the scale are
// patched in, so a reused plan's transform rebuilds nothing, spawns no
// goroutines and performs no heap allocations.
//
// Runs serialise on the runner's lock (the buffers, intermediates and
// executor are shared scratch; independent runners run fully in parallel).
// Close is idempotent and safe to call concurrently with a run in flight —
// it waits for the run; later runs fail. Runners dropped without Close are
// cleaned up by a finalizer.
type Runner struct {
	cfg    RunnerConfig
	fused  bool // false only under Ablation.Unfused
	graphs []*compiled
	bufs   *Buffers
	exec   *Executor

	lock      sync.Mutex
	closed    bool
	lastStats Stats
}

type compiled struct {
	*Graph
	sched *Schedule
	obs   *obs.Collector
	unreg func()
}

// NewRunner compiles the graphs, allocates the shared double buffer at the
// largest graph's footprint, registers the collectors and spawns the worker
// team.
func NewRunner(cfg RunnerConfig, graphs ...*Graph) (*Runner, error) {
	if cfg.DataWorkers == 0 {
		cfg.DataWorkers = 1
	}
	if cfg.ComputeWorkers == 0 {
		cfg.ComputeWorkers = 1
	}
	r := &Runner{cfg: cfg, fused: !current().Unfused}
	elems, staging := 0, false
	for i, g := range graphs {
		c := &compiled{Graph: g, sched: Compile(g.stages, r.fused)}
		if i < len(cfg.Labels) && cfg.Labels[i] != "" {
			names := make([]string, len(g.stages))
			for j := range g.stages {
				names[j] = g.stages[j].Name
			}
			c.obs = obs.NewCollector(cfg.DataWorkers, cfg.ComputeWorkers, names)
			_, c.unreg = obs.Default.Register(cfg.Labels[i], c.obs)
		}
		r.graphs = append(r.graphs, c)
		elems = max(elems, g.elems)
		staging = staging || g.staging
	}
	r.bufs = NewBuffers(elems, staging)
	exec, err := NewExecutor(Config{
		DataWorkers:    cfg.DataWorkers,
		ComputeWorkers: cfg.ComputeWorkers,
		ScratchComplex: elems,
	})
	if err != nil {
		r.unregister()
		return nil, err
	}
	r.exec = exec
	// Backstop for callers that drop the plan without Close: the workers
	// reference the executor, never the runner, so once the plan (and with
	// it the runner) is unreachable no run can be in flight and the
	// finalizer may release the parked team.
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

// Close releases the worker team and unregisters the collectors.
func (r *Runner) Close() {
	r.lock.Lock()
	defer r.lock.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.exec.Close()
	runtime.SetFinalizer(r, nil)
	r.unregister()
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
		// One single-iteration stage whose unit count is this call's rows
		// (the compiled schedule only pins the iteration count). The
		// buffers grow when a larger batch than ever before arrives.
		st := &stages[0]
		st.Units = c.Count
		if st.StoreUnits != 0 {
			st.StoreUnits = c.Count
		}
		if need := c.Count * st.UnitLen; need > r.bufs.Elems {
			r.bufs = NewBuffers(need, r.bufs.T[0] != nil)
		}
	}
	gr.bind(c.In, c.Out)
	rec := c.Tracer
	if rec == nil {
		rec = r.cfg.Tracer
	}
	r.exec.SetObs(gr.obs)
	st, err := r.exec.Run(r.bufs, stages, gr.sched, rec)
	gr.bind(Endpoint{}, Endpoint{})
	if err != nil {
		return err
	}
	r.lastStats = st
	return nil
}

// Mu returns graph 0's effective block length.
func (r *Runner) Mu() int {
	return r.graphs[0].mu
}

// Iters returns the pipeline iteration count of each stage of graph g.
func (r *Runner) Iters(g int) []int {
	return r.graphs[g].sched.iters
}

// Stats returns the whole-transform executor stats of the most recent run.
func (r *Runner) Stats() Stats {
	r.lock.Lock()
	defer r.lock.Unlock()
	return r.lastStats
}

// Obs returns graph g's live telemetry collector (nil without a label).
func (r *Runner) Obs(g int) *obs.Collector {
	return r.graphs[g].obs
}

// SetRoofline sets the STREAM-peak normalisation on every collector.
func (r *Runner) SetRoofline(gbs float64) {
	for _, c := range r.graphs {
		c.obs.SetRoofline(gbs)
	}
}

// Observability returns the bandwidth-accounting snapshot of every run so
// far, merged over the graphs (stage lists concatenated, counters summed).
func (r *Runner) Observability() obs.Snapshot {
	out := r.graphs[0].obs.Snapshot()
	for _, c := range r.graphs[1:] {
		b := c.obs.Snapshot()
		out.Runs += b.Runs
		out.Steps += b.Steps
		out.BothBusySteps += b.BothBusySteps
		out.WallNs += b.WallNs
		out.BarrierWaitNs += b.BarrierWaitNs
		if out.Steps > 0 {
			out.OverlapOccupancy = float64(out.BothBusySteps) / float64(out.Steps)
		}
		if b.Runs > 0 {
			out.LastRunOccupancy = b.LastRunOccupancy
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
		s += Describe(c.stages, r.fused)
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

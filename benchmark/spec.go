package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/kernels"
	"repro/internal/machine"
)

// metricDef names one metric the program emits. The lists below are the
// program's side of the contract; BENCHMARK.json must list exactly these
// names with these units (a unit test holds the two together).
type metricDef struct{ name, unit string }

// workloadNames are the seven workloads in suite order.
var workloadNames = []string{"mem3d", "cache2d", "real3d", "big1d", "serve1d", "http2d", "shard3d"}

// gatedWorkloads are the ones BENCHMARK.json lists, so the ones a later
// change is accepted or rejected on. The acceptance procedure makes 22 runs
// per listed workload inside a fixed hour and refuses a benchmark whose runs
// of the same code spread past its bounds, so the gate holds one workload per
// regime — memory, compute, serving, wire — at 25 s a run. real3d, big1d and
// shard3d stay in the suite (`go run ./benchmark` runs all seven) and out of
// the gate: real3d is the most exposed to the host's other tenants (a
// two-minute slow spell took 20 % off it while mem3d moved 5 %), big1d guards
// a graph builder rather than a regime, and a three-node fleet inside one
// throttled process measures its own queueing.
var gatedWorkloads = []string{"mem3d", "cache2d", "serve1d", "http2d"}

// The four transform workloads' shapes (the plan-build probes use them too).
var (
	shapeMem3d = shape{"c3d", [3]int{256, 256, 256}}
	// 512², not the 1024² first sized: 4 MiB arrays are still above L2 and
	// inside the LLC, but 1024² (48 MiB touched) moved 28 → 57 ms/op with the
	// host's other tenants within twenty minutes while 512² held within 4 %.
	shapeCache2d = shape{"c2d", [3]int{1, 512, 512}}
	shapeReal3d  = shape{"r3d", [3]int{512, 256, 256}}
	shapeBig1d   = shape{"c1d", [3]int{1, 1, 1 << 24}}
)

// newWorkload builds the named workload's description (no inputs yet); root
// is the module root, where http2d builds cmd/fftserved.
func newWorkload(name, root string) (workload, error) {
	switch name {
	case "mem3d":
		return &transformWL{sh: shapeMem3d, mem: true}, nil
	case "cache2d":
		return &transformWL{sh: shapeCache2d}, nil
	case "real3d":
		return &transformWL{sh: shapeReal3d, mem: true}, nil
	case "big1d":
		return &transformWL{sh: shapeBig1d, mem: true}, nil
	case "serve1d":
		return &serve1dWL{}, nil
	case "http2d":
		return &http2dWL{root: root}, nil
	case "shard3d":
		return &shard3dWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// endToEnd is what an untraced run reports: what a caller of the system
// sees. fail_ratio is not here because the result line carries it as
// failed/attempted (and a metric that is 0 when healthy cannot be bounded
// as a share of its median).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"computed_gbs", "GB/s"},
	{"op_ms_p10", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is what a traced run reports, <module>.<metric>.
var perLayer = []metricDef{
	{"stream.copy_gbs", "GB/s"},
	{"stream.copy_spread", "ratio"},
	{"kernels.radix16_gbs", "GB/s"},
	{"kernels.radix4_gbs", "GB/s"},
	{"fft1d.batch256_gbs", "GB/s"},
	{"fft1d.batch1024_gbs", "GB/s"},
	{"fft1d.batch4096_gbs", "GB/s"},
	{"fft1d.plan_build_ms", "ms"},
	{"layout.scatter_gbs.l2", "GB/s"},
	{"layout.scatter_gbs.mem", "GB/s"},
	{"layout.scatter_nt_gbs.mem", "GB/s"},
	{"layout.rotate3d_gbs.mem", "GB/s"},
	{"layout.transpose_gbs.mem", "GB/s"},
	{"fft2d.plan_build_ms", "ms"},
	{"fft3d.plan_build_ms", "ms"},
	{"rfft.plan_build_ms", "ms"},
	{"fft1dlarge.plan_build_ms", "ms"},
	{"stagegraph.load_gbs", "GB/s"},
	{"stagegraph.store_gbs.min", "GB/s"},
	{"stagegraph.compute_share", "ratio"},
	{"stagegraph.barrier_wait_share", "ratio"},
	{"stagegraph.overlap_occupancy", "ratio"},
	{"stagegraph.steps_per_op", "count"},
	{"replay.load_ms", "ms"},
	{"replay.compute_ms", "ms"},
	{"replay.store_ms", "ms"},
	{"replay.sum_over_wall", "ratio"},
	{"repro.forward_ms_p50", "ms"},
	{"repro.inverse_ms_p50", "ms"},
	{"repro.first_op_ms", "ms"},
	{"repro.allocs_per_op", "count"},
	{"repro.max_rel_err", "ratio"},
	{"serve.do_us_p50", "us"},
	{"serve.execute_us_p50", "us"},
	{"serve.overhead_us_p50", "us"},
	{"serve.avg_batch", "count"},
	{"serve.plan_get_hit_ns", "ns"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"fftserved.roundtrip_ms_p50", "ms"},
	{"fftserved.do_ms_p50", "ms"},
	{"fftserved.wire_ms_p50", "ms"},
	{"fftserved.wire_share", "ratio"},
	{"fftserved.req_bytes", "bytes"},
	{"fftserved.resp_bytes", "bytes"},
	{"client.encode_ms_p50", "ms"},
	{"client.decode_ms_p50", "ms"},
	{"shard.transform_ms_p50", "ms"},
	{"shard.single_node_ms_p50", "ms"},
	{"shard.speed_ratio", "ratio"},
	{"shard.scatter_bytes_per_op", "bytes"},
	{"shard.gather_bytes_per_op", "bytes"},
	{"shard.exchange_bytes_per_op", "bytes"},
	{"shard.chunks_per_op", "count"},
	{"shard.retries_per_op", "count"},
	{"shard.exchange_wait_share", "ratio"},
	{"shard.straggler_ratio", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.op_ms_p50", "ms"},
	{"bench.op_ms_p95", "ms"},
	{"bench.op_samples", "count"},
}

// checkComplete fails unless m holds exactly the metrics of defs.
func checkComplete(m metrics, defs []metricDef) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := m[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	for name := range m {
		if !want[name] {
			return fmt.Errorf("metric %s is not declared in spec.go", name)
		}
	}
	return nil
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot walks up from the working directory to the module root (the
// directory holding go.mod and BENCHMARK.json).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// meta identifies the conditions a result was measured under; results whose
// meta differ are not comparable.
type meta struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelTier string `json:"kernel_tier"`
	L2Bytes    int    `json:"l2_bytes"`
	LLCBytes   int    `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func currentMeta(seed int64, seconds int) meta {
	return meta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: kernels.Tier(),
		L2Bytes:    machine.HostL2Bytes(), LLCBytes: machine.HostLLCBytes(),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Seed: seed, Seconds: seconds,
	}
}

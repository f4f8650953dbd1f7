// Command benchmark is the repository's ruler: seven named workloads, the
// end-to-end metrics a caller sees and the per-layer metrics behind them,
// every output verified. See README.md in this directory.
//
//	go run ./benchmark                      # whole suite: untraced + traced run per workload
//	go run ./benchmark -repeat 2            # suite twice, compared against BENCHMARK.json's bounds
//	go run ./benchmark -workload cache2d -seconds 3     # one workload, quick
//	go run ./benchmark --workload mem3d --seed 1 --seconds 25 --trace 0   # one contract run
//
// A run with -trace given is one contract run: it executes in this process
// and its last output line is the result object. Every other invocation is
// the suite runner, which starts one child process per contract run so each
// workload has a cold set-up and its own peak RSS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/machine"
)

// defaultSeconds is the length of a measured pass, and run_seconds in
// BENCHMARK.json.
const defaultSeconds = 25

// result is the last line a contract run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]resultVal `json:"metrics"`
}

type resultVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "run only this workload (default: all seven)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", defaultSeconds, "length of each measured pass (run_seconds in BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: one untraced run (end-to-end metrics); 1: one traced run (per-layer metrics)")
		repeat  = flag.Int("repeat", 1, "run the suite this many times and compare the first two")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	leaveOneCPU()
	contract := false
	flag.Visit(func(f *flag.Flag) { contract = contract || f.Name == "trace" })
	if contract {
		if *wlName == "" {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		os.Exit(runOne(root, *wlName, *seed, *seconds, *trace == 1))
	}
	names := workloadNames
	if *wlName != "" {
		names = []string{*wlName}
	}
	os.Exit(runSuite(root, names, *seed, *seconds, *repeat))
}

// leaveOneCPU caps GOMAXPROCS at nproc − 1 (at least 1) unless the caller
// set GOMAXPROCS itself, and exports the value so the fftserved child runs
// under the same cap. The benchmark runs on a few vCPUs of a shared host:
// a pipeline that needs every one of them running at the same instant
// measures the hypervisor's scheduler (cache2d in alternating 20 s blocks over
// eight minutes: 13.5–18.1 ms/op on 2 of 2 vCPUs, 11.6–14.0 ms/op on 1), so
// one is left to the kernel, the other tenants and the harness. Plans size their
// worker pools from GOMAXPROCS when they are built, so this is the one
// setting the benchmark makes; it is recorded in every result's meta.
func leaveOneCPU() {
	if os.Getenv("GOMAXPROCS") != "" {
		return
	}
	n := max(runtime.NumCPU()-1, 1)
	runtime.GOMAXPROCS(n)
	os.Setenv("GOMAXPROCS", strconv.Itoa(n))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne is one contract run in this process. It returns the exit code: 0
// only when every op was attempted, none failed and every metric was
// measured.
func runOne(root, name string, seed int64, seconds int, traced bool) int {
	w, err := newWorkload(name, root)
	if err != nil {
		fatal(err)
	}
	mt, _ := json.Marshal(currentMeta(seed, seconds))
	fmt.Printf("# %s  trace=%v\nmeta: %s\n", name, traced, mt)

	var (
		m    metrics
		p    *pass
		defs = endToEnd
	)
	if traced {
		defs = perLayer
		m, p, err = runTraced(root, name, w, seed, time.Duration(seconds)*time.Second)
	} else {
		m, p, err = runUntraced(w, seed, time.Duration(seconds)*time.Second)
	}
	if err == nil {
		err = checkComplete(m, defs)
	}
	res := result{Metrics: map[string]resultVal{}}
	if p != nil {
		res.Attempted, res.Failed = p.attempted, p.failed
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: first failed op:", p.firstErr)
		}
	}
	if err != nil {
		// No result line: the run did not measure what it claims to.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, d := range defs {
		res.Metrics[d.name] = resultVal{m[d.name], d.unit}
		fmt.Printf("%-30s %16.6g %s\n", d.name, m[d.name], d.unit)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(w workload, seed int64, d time.Duration) (metrics, *pass, error) {
	if err := w.prepare(seed); err != nil {
		return nil, nil, err
	}
	setups, err := setUp(w)
	defer w.teardown()
	if err != nil {
		return nil, nil, err
	}
	p := runPass(w, d, false)
	if len(p.lat) == 0 {
		return nil, p, fmt.Errorf("no op succeeded: %v", p.firstErr)
	}
	ops := opsPerSec(p.byClient)
	lat := durationsMs(p.lat)
	m := metrics{
		"setup_s":      median(durationsMs(setups)) / 1e3,
		"ops_per_s":    ops,
		"computed_gbs": ops * w.bytesPerOp() / 1e9,
		"op_ms_p10":    percentile(lat, quietShare),
		"peak_rss_mib": p.peakRSS,
	}
	fmt.Printf("note: %d ops, %d failed; set-ups %v; op p50 %.4g ms, p95 %s\n",
		p.attempted, p.failed, setups, median(lat), p95Note(lat))
	noteFootprint(w)
	return m, p, nil
}

// p95Note prints op_ms_p95 under the ≥ 10-samples-beyond rule: a number
// only when the sample resolves it.
func p95Note(lat []float64) string {
	if !tailResolved(len(lat), 0.95) {
		return fmt.Sprintf("null (n=%d < 200, unresolved)", len(lat))
	}
	return fmt.Sprintf("%.4g ms (n=%d)", percentile(lat, 0.95), len(lat))
}

// noteFootprint records the op's working set beside the detected LLC and
// flags a memory-regime workload that would fit twice into cache.
func noteFootprint(w workload) {
	sh := w.ref().sh
	llc := machine.HostLLCBytes()
	ratio := float64(sh.footprint()) / float64(llc)
	flag := ""
	if t, ok := w.(*transformWL); ok && t.mem && ratio < 2 {
		flag = "  FLAG: below 2× LLC, not the memory regime"
	}
	fmt.Printf("note: %s; working set %d MiB = %.2f× LLC (%d MiB)%s\n",
		sh, sh.footprint()>>20, ratio, llc>>20, flag)
}

func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/shard"
	"repro/internal/stagegraph"
)

// The golden oracle: one row per (plan kind, shape, option variant) holding
// the compiled graph's DescribeGraph() text and a digest of the raw output
// bits of a forward transform and of the inverse applied to it, from a
// seeded input. testdata/golden.json was generated once from the commit
// that precedes the single-builder refactor (`go test -run TestGolden
// -update .`) and is what every later graph builder has to reproduce: a
// new tier or plan kind is one more row, not one more per-package copy of
// a fused-vs-unfused / fold-on-off / NT-vs-regular comparison.
//
// What a row pins:
//
//   - fwd / inv digests: always, per kernel tier (kernels.Tier(): the
//     AVX2/FMA codelets and the pure-Go ones round differently, so each
//     tier has its own pair; within a tier block sizes, fusion, folding,
//     prefetching and the store tier only re-partition the work).
//     `-update` merges the running tier's digests into the file: run it
//     once per tier.
//   - describe: byte for byte on every host. The cases build their plans
//     sized as on the host that wrote the file — its buffer_elems and
//     llc_bytes, through stagegraph.Ablation.Host — at a fixed lane count
//     (one, or two for the unfused rows). Builds without the
//     streaming-store tier (every -tags purego build) mark no stage
//     `streaming` and give no stage one lane's soft DMA, so there the
//     comparison masks the markers the footprint decides (streaming, a
//     folded load, a prefetched next block, a folded store) on both sides. Rows flagged
//     depth_floor — the real-input plans, whose block sizers gained the
//     pipeline-depth floor the complex plans always had — compare with the
//     per-stage iteration and unit counts masked; the differences are
//     logged so they can be listed.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

const goldenPath = "testdata/golden.json"

type goldenFile struct {
	BufferElems int         `json:"buffer_elems"`
	LLCBytes    int         `json:"llc_bytes"`
	Rows        []goldenRow `json:"rows"`
}

type goldenRow struct {
	Name       string `json:"name"`
	Describe   string `json:"describe,omitempty"`
	DepthFloor bool   `json:"depth_floor,omitempty"`
	// Digests maps kernels.Tier() to the {forward, inverse} output digests.
	Digests map[string][2]string `json:"digests"`
}

// goldenCase builds a plan and returns its graph text and the two digests.
type goldenCase struct {
	name       string
	depthFloor bool
	run        func() (describe, fwd, inv string, err error)
}

// goldenInput is the seeded operand: splitmix64 mapped to [-1, 1).
func goldenInput(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = float64(z>>11)/(1<<52) - 1
	}
	return x
}

func goldenComplex(n int, seed uint64) []complex128 {
	f := goldenInput(2*n, seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(f[2*i], f[2*i+1])
	}
	return x
}

func digestFloats(x []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func digestComplex(x []complex128) string {
	f := make([]float64, 2*len(x))
	for i, v := range x {
		f[2*i], f[2*i+1] = real(v), imag(v)
	}
	return digestFloats(f)
}

// complexPlan is what the complex plan kinds share.
type complexPlan interface {
	Transform(dst, src []complex128, sign int) error
	Inverse(dst, src []complex128) error
	DescribeGraph() string
	Close()
}

func runComplex(p complexPlan, n int) (string, string, string, error) {
	defer p.Close()
	src := goldenComplex(n, uint64(n))
	fwd := make([]complex128, n)
	inv := make([]complex128, n)
	if err := p.Transform(fwd, src, fft1d.Forward); err != nil {
		return "", "", "", err
	}
	if err := p.Inverse(inv, fwd); err != nil {
		return "", "", "", err
	}
	return p.DescribeGraph(), digestComplex(fwd), digestComplex(inv), nil
}

func runReal(cfg core.Config, dims ...int) (string, string, string, error) {
	p, err := core.NewPlan(cfg, true, dims...)
	if err != nil {
		return "", "", "", err
	}
	defer p.Close()
	realLen := p.Len()
	src := goldenInput(realLen, uint64(realLen))
	spec := make([]complex128, p.SpectrumLen())
	back := make([]float64, realLen)
	if err := p.ForwardReal(spec, src, 1); err != nil {
		return "", "", "", err
	}
	if err := p.InverseReal(back, spec, 1); err != nil {
		return "", "", "", err
	}
	return p.DescribeGraph(), digestComplex(spec), digestFloats(back), nil
}

// variant is one setting applied on top of the defaults: a μ or a lane
// count through the configuration, or an oracle schedule through the one
// seam that reaches them, stagegraph.Ablation, installed — with the golden
// host's sizes — while the case builds and runs its plan (the shard rows'
// loopback workers build theirs in this process too).
type variant struct {
	name        string
	mu          int
	lanes       int // 0: the graph plans' one lane; else also the slab plans' GOMAXPROCS
	ab          stagegraph.Ablation
	complexOnly bool // NoFold / Stores: fft2d and fft3d only
}

var goldenVariants = []variant{
	{name: "default"},
	{name: "mu4", mu: 4},
	{name: "radix4", ab: stagegraph.Ablation{Radix: 4}},
	// Two lanes, under the name of the retired schedule that drained each
	// stage before the next (as the lanes' stage barriers do) on the two
	// goroutines of its 1+1 team: its rows hold a two-lane run to the
	// default rows' digests, which do not depend on L, and to their graph
	// text, which does only where one lane's stores stream (the nt rows).
	{name: "unfused", lanes: 2},
	{name: "nofold", ab: stagegraph.Ablation{NoFold: true}, complexOnly: true},
	{name: "nt", ab: stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, complexOnly: true},
}

func goldenCases(host stagegraph.HostSizes) []goldenCase {
	var cases []goldenCase
	for _, v := range goldenVariants {
		v := v
		ab := v.ab
		ab.Host = host
		add := func(name string, depthFloor bool, run func() (string, string, string, error)) {
			cases = append(cases, goldenCase{name: name + "/" + v.name, depthFloor: depthFloor,
				run: func() (string, string, string, error) {
					defer stagegraph.SetAblation(ab)()
					return run()
				}})
		}
		cfg := core.Config{Mu: v.mu, Lanes: v.lanes}
		for _, s := range [][2]int{{64, 64}, {96, 80}, {512, 512}} {
			n, m := s[0], s[1]
			add(fmt.Sprintf("fft2d/%dx%d", n, m), false, func() (string, string, string, error) {
				p, err := core.NewPlan(cfg, false, n, m)
				if err != nil {
					return "", "", "", err
				}
				return runComplex(p, n*m)
			})
		}
		for _, s := range [][3]int{{32, 32, 32}, {24, 20, 16}, {64, 64, 64}} {
			k, n, m := s[0], s[1], s[2]
			add(fmt.Sprintf("fft3d/%dx%dx%d", k, n, m), false, func() (string, string, string, error) {
				p, err := core.NewPlan(cfg, false, k, n, m)
				if err != nil {
					return "", "", "", err
				}
				return runComplex(p, k*n*m)
			})
		}
		if v.complexOnly {
			continue
		}
		ropts := core.Config{Mu: v.mu, Lanes: v.lanes}
		for _, n := range []int{1024, 96, 60} {
			n := n
			add(fmt.Sprintf("rfft1d/%d", n), true, func() (string, string, string, error) {
				return runReal(ropts, n)
			})
		}
		for _, s := range [][2]int{{64, 128}, {48, 96}, {20, 60}, {256, 512}} {
			n, m := s[0], s[1]
			add(fmt.Sprintf("rfft2d/%dx%d", n, m), true, func() (string, string, string, error) {
				return runReal(ropts, n, m)
			})
		}
		for _, s := range [][3]int{{16, 32, 64}, {12, 10, 24}, {64, 64, 64}} {
			k, n, m := s[0], s[1], s[2]
			add(fmt.Sprintf("rfft3d/%dx%dx%d", k, n, m), true, func() (string, string, string, error) {
				return runReal(ropts, k, n, m)
			})
		}
		// The complex 1D plan has no graph; its rows pin the bits of the plan
		// the public handle runs (its chain is fft1d.NewPlan but for the
		// radix-4 ablation) at a size past L2.
		if v.mu == 0 && v.lanes == 0 {
			const n = 1 << 17
			add(fmt.Sprintf("fft1d/%d", n), false, func() (string, string, string, error) {
				p, err := core.NewPlan(core.Config{}, false, n)
				if err != nil {
					return "", "", "", err
				}
				src := goldenComplex(n, uint64(n))
				fwd := make([]complex128, n)
				inv := make([]complex128, n)
				if err := p.Transform(fwd, src, fft1d.Forward); err != nil {
					return "", "", "", err
				}
				if err := p.Inverse(inv, fwd); err != nil {
					return "", "", "", err
				}
				return "", digestComplex(fwd), digestComplex(inv), nil
			})
		}
		// The partitioned plans have no DescribeGraph; their rows pin the
		// output bits (the inverse is the unnormalised one they expose).
		for _, s := range [][4]int{{32, 32, 32, 2}, {64, 64, 64, 4}} {
			k, n, m, sk := s[0], s[1], s[2], s[3]
			add(fmt.Sprintf("dist3d/%dx%dx%d/sk%d", k, n, m, sk), false, func() (string, string, string, error) {
				if v.lanes > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.lanes))
				}
				return runDist(k, n, m, sk, v.mu)
			})
		}
		if v.lanes == 0 {
			add("shard3d/32x32x32/w2", false, func() (string, string, string, error) {
				return runShard(32, 32, 32, 2, shard.CoordinatorOptions{Mu: v.mu})
			})
		}
	}
	return cases
}

func runDist(k, n, m, sk, mu int) (string, string, string, error) {
	p, err := shard.NewLocal(k, n, m, sk, mu, shard.WorkerOptions{})
	if err != nil {
		return "", "", "", err
	}
	defer p.Close()
	total := k * n * m
	fwd := make([]complex128, total)
	inv := make([]complex128, total)
	if err := p.Transform(fwd, goldenComplex(total, uint64(total)), fft1d.Forward); err != nil {
		return "", "", "", err
	}
	if err := p.Transform(inv, fwd, fft1d.Inverse); err != nil {
		return "", "", "", err
	}
	return "", digestComplex(fwd), digestComplex(inv), nil
}

func runShard(k, n, m, workers int, copts shard.CoordinatorOptions) (string, string, string, error) {
	cl, err := shard.StartCluster(workers, shard.WorkerOptions{}, copts)
	if err != nil {
		return "", "", "", err
	}
	defer cl.Close()
	total := k * n * m
	src := goldenComplex(total, uint64(total))
	fwd := make([]complex128, total)
	inv := make([]complex128, total)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Coord.Transform(ctx, fwd, src, k, n, m, fft1d.Forward); err != nil {
		return "", "", "", err
	}
	if err := cl.Coord.Transform(ctx, inv, fwd, k, n, m, fft1d.Inverse); err != nil {
		return "", "", "", err
	}
	return "", digestComplex(fwd), digestComplex(inv), nil
}

var (
	reFootprint = regexp.MustCompile(`, (streaming|load folded into the first sweep|next block prefetched|store folded into the last sweep)`)
	reIters     = regexp.MustCompile(`iters=\d+ *`)
	reUnits     = regexp.MustCompile(`(load|store) \d+×`)
	reSchedule  = regexp.MustCompile(`(?m)^  (schedule|fill overhead):.*\n`)
)

// maskDepth blanks what the pipeline-depth floor is allowed to move in a
// depth_floor row: per-stage iteration and unit counts, and the schedule
// summary derived from them.
func maskDepth(s string) string {
	s = reIters.ReplaceAllString(s, "iters=_ ")
	s = reUnits.ReplaceAllString(s, "$1 _×")
	return reSchedule.ReplaceAllString(s, "")
}

func readGolden() (goldenFile, map[string]goldenRow, error) {
	var g goldenFile
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, nil, err
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return g, nil, err
	}
	rows := make(map[string]goldenRow, len(g.Rows))
	for _, r := range g.Rows {
		rows[r.Name] = r
	}
	return g, rows, nil
}

// sizes is the host the file's graph text was sized on.
func (g goldenFile) sizes() stagegraph.HostSizes {
	return stagegraph.HostSizes{BufferElems: g.BufferElems, LLCBytes: g.LLCBytes}
}

// writeGolden merges this build's results into the file, built under its
// header's sizes (this host's when there is no file yet): the running
// tier's digests always; the graph text only from a build that has the
// streaming-store tier (the other would drop the markers the footprint
// decides). A new row takes this build's graph text.
func writeGolden(t *testing.T) {
	out, old, err := readGolden()
	if err != nil {
		out.BufferElems, out.LLCBytes = machine.PreferredBufferElems(), machine.HostLLCBytes()
	}
	out.Rows = nil
	tier := kernels.Tier()
	for _, c := range goldenCases(out.sizes()) {
		desc, fwd, inv, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		row := old[c.name]
		row.Name, row.DepthFloor = c.name, c.depthFloor
		if layout.NonTemporalAvailable() || row.Describe == "" {
			row.Describe = desc
		}
		if row.Digests == nil {
			row.Digests = map[string][2]string{}
		}
		row.Digests[tier] = [2]string{fwd, inv}
		out.Rows = append(out.Rows, row)
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d rows (tier %s) to %s", len(out.Rows), tier, goldenPath)
}

func TestGolden(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
		return
	}
	want, rows, err := readGolden()
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGolden -update .)", err)
	}
	cases := goldenCases(want.sizes())
	if len(rows) != len(cases) {
		t.Errorf("%s holds %d rows, the table has %d cases", goldenPath, len(rows), len(cases))
	}
	tier := kernels.Tier()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, ok := rows[c.name]
			if !ok {
				t.Fatalf("no golden row")
			}
			desc, fwd, inv, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			d, ok := w.Digests[tier]
			if !ok {
				t.Fatalf("no golden digests for kernel tier %q", tier)
			}
			if fwd != d[0] {
				t.Errorf("forward output bits changed: digest %s, golden %s", fwd, d[0])
			}
			if inv != d[1] {
				t.Errorf("inverse output bits changed: digest %s, golden %s", inv, d[1])
			}
			wantDesc := w.Describe
			if !layout.NonTemporalAvailable() {
				desc = reFootprint.ReplaceAllString(desc, "")
				wantDesc = reFootprint.ReplaceAllString(wantDesc, "")
			}
			if desc == wantDesc {
				return
			}
			if w.DepthFloor && maskDepth(desc) == maskDepth(wantDesc) {
				t.Logf("depth floor re-sized the blocks:\n--- golden\n%s--- now\n%s", wantDesc, desc)
				return
			}
			t.Errorf("graph changed:\n--- golden\n%s--- now\n%s", wantDesc, desc)
		})
	}
}

// Package coretest is the differential oracle every core.Plan path is
// checked against, with the plan checks that are not differential. The
// tests of core run its tables whole; core's and the wrapping packages'
// per-rank tests run the slice of a table their name stands for. Only
// tests import it.
package coretest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spl"
	"repro/internal/stagegraph"
	"repro/internal/twiddle"
)

// The differential oracle: one table of shapes × paths × directions. Every
// path a transform can take — the product plan, each stagegraph.Ablation
// variant, other lane counts, the entry points that wrap Transform, the
// sharded slabs, the serving layer — runs every shape it can, in every
// direction it has, and is held
//
//   - to the compensated direct DFT (accuracy.Bin along each axis) in
//     relative L2, within accuracy.Bound of the element count;
//   - bit for bit to the product plan, unless it changes the arithmetic (the
//     radix caps, the padded complex transform of a real grid);
//   - where it is an Ablation, to a compiled graph (or 1D chain) that differs
//     from the product's wherever the ablation applies, so a variant that
//     stops changing anything cannot pass the bitwise check by doing so;
//   - to the structural columns its old per-rank tests asserted: fold-stage
//     counts, streaming-stage counts and where Inverse's 1/N rides.
//
// A complex path with both inverse directions also holds Inverse to
// Transform(…, fft1d.Inverse) followed by fft1d.Scale, bitwise, the
// unnormalized transform running after Inverse so a leaked scale shows. A
// new path is one more entry in oraclePaths.

// oracleSeeds are the input seeds Oracle replays; a fresh seed, logged, runs
// after them. A fresh seed that fails belongs in this list.
var oracleSeeds = []int64{1}

// Oracle runs the whole table on every committed seed and on a fresh one.
func Oracle(t *testing.T) {
	for _, seed := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runOracle(t, seed, oracleShapes, oraclePaths) })
	}
	fresh := time.Now().UnixNano()
	t.Run("fresh", func(t *testing.T) {
		t.Logf("fresh seed %d: add it to oracleSeeds if this fails", fresh)
		runOracle(t, fresh, oracleShapes, oraclePaths)
	})
}

// dir is a transform direction: forward, the normalized Inverse and, for a
// complex Shape, the unnormalized backward Transform, run in that order.
type dir int

const (
	fwd dir = iota
	inv
	bwd
)

func (d dir) String() string { return [...]string{"forward", "inverse", "backward"}[d] }

func (d dir) sign() int { return [...]int{fft1d.Forward, fft1d.Inverse, fft1d.Inverse}[d] }

// Shape is one row of extents and the Config fields it is planned with over
// core.Default().
type Shape struct {
	Name    string
	Real    bool
	Dims    []int
	mu, buf int
	// inStore is where a complex product's Inverse scale rides: +1 the last
	// stage's store, -1 its compute leg, 0 unchecked.
	inStore int
	// folded is how many of the product's stages, both directions, fold a
	// radix-4 butterfly into the store; 0 unchecked.
	folded int
}

func cx(dims ...int) Shape { return Shape{Name: dimsName(dims), Dims: dims} }
func rx(dims ...int) Shape { return Shape{Name: "r" + dimsName(dims), Real: true, Dims: dims} }

func dimsName(dims []int) string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint(dims), " ", "x"), "[]")
}

// with returns s planned with an explicit μ and buffer, its name suffixed.
func (s Shape) with(suffix string, mu, buf int) Shape {
	s.Name, s.mu, s.buf = s.Name+suffix, mu, buf
	return s
}

// scaleIn returns s planned with a 2⁹-element buffer and its Inverse scale
// placement (inStore) declared.
func (s Shape) scaleIn(where int) Shape {
	s.buf, s.inStore = 1<<9, where
	return s
}

// folding returns s with its folded stage count declared: a real grid whose
// every stage but the rows folds, in both directions.
func (s Shape) folding(stages int) Shape { s.folded = stages; return s }

func (s Shape) cfg() core.Config {
	c := core.Default()
	c.Mu, c.BufferElems = s.mu, s.buf
	return c
}

func (s Shape) n() int { n, _ := core.Elems(s.Dims...); return n }

// lanes are the extents the 1D sub-plans run: a real shape's last is half
// its real row.
func (s Shape) lanes() []int {
	l := slices.Clone(s.Dims)
	if s.Real {
		l[len(l)-1] /= 2
	}
	return l
}

func (s Shape) dirs() []dir {
	if s.Real {
		return []dir{fwd, inv}
	}
	return []dir{fwd, inv, bwd}
}

// inverseShapes declare where the Inverse scale rides: the last stage's
// store when it folds, its compute leg when its chain does not end in a
// radix-4 (24 runs [3 8], 6 and 8 are one codelet).
var inverseShapes = []Shape{
	cx(64, 64).scaleIn(+1), cx(32, 128).scaleIn(+1), cx(64, 96).scaleIn(+1),
	cx(96, 64).scaleIn(+1), cx(20, 12).scaleIn(+1), cx(24, 12).scaleIn(-1), // 96 runs [3 8 4], 20 [5 4]
	cx(16, 16, 16).scaleIn(+1), cx(8, 16, 32).scaleIn(-1), cx(16, 12, 8).scaleIn(+1),
	cx(12, 16, 8).scaleIn(+1), cx(24, 16, 8).scaleIn(-1), cx(6, 10, 12).scaleIn(-1),
}

// oracleShapes spans rank 1–3, complex and real: powers of two, 3·2ᵏ and
// 5·2ᵏ, Bluestein primes (13, 61, 127), extents 1 and 2, odd rows no μ > 1
// divides, odd and full-row μ, buffers of one μ-block to one row, and a
// buffer smaller than one row.
var oracleShapes = append([]Shape{
	cx(1), cx(2), cx(8), cx(96), cx(160), cx(127), cx(1024),
	cx(1, 1), cx(2, 2), cx(1, 8), cx(2, 16), cx(7, 9), cx(13, 16),
	cx(5, 15).with("-mu3", 3, 64), cx(9, 25).with("-mu5", 5, 64), cx(6, 20).with("-mu4", 4, 64),
	cx(4, 8).with("-b8", 4, 8), cx(8, 8).with("-b16", 4, 16), cx(64, 32).with("-mu8", 8, 512),
	cx(16, 64).with("-mu16", 16, 128),
	cx(8, 256).with("-b64", 4, 64), // b = 64 < m = 256: one-row blocks
	cx(128, 256).with("-b4096", 0, 1<<12),
	cx(1, 1, 1), cx(2, 2, 2), cx(1, 2, 8), cx(3, 5, 7), cx(4, 13, 8), cx(16, 8, 16).with("-b128", 0, 128),
	cx(5, 3, 9).with("-mu3", 3, 64), cx(4, 6, 10).with("-mu2", 2, 64), cx(2, 4, 8).with("-b8", 4, 8),
	cx(4, 4, 4).with("-b16", 4, 16), cx(16, 8, 32).with("-mu8", 8, 256), cx(16, 16, 16).with("-mu16", 16, 512),
	rx(2), rx(6), rx(64), rx(100), rx(96), rx(254),
	rx(1, 2), rx(3, 4), rx(5, 6), rx(7, 10), rx(16, 32).folding(2), rx(61, 8),
	rx(1, 1, 2), rx(3, 5, 6), rx(4, 6, 8), rx(8, 8, 16), rx(16, 32, 64).folding(4),
}, inverseShapes...)

// product is a shape's inputs and references, and its product plan with
// that plan's outputs. Every input and output is complex; a real grid's
// values have zero imaginary parts.
type product struct {
	s            Shape
	plan         *core.Plan
	sig          string
	in, ref, out [3][]complex128 // by dir; a real inverse's input is its reference spectrum
}

// references caches each shape's inputs and references by seed: the
// compensated DFT is the slow part of a row, and every slice of the table
// reads the same ones.
var references sync.Map // [2]any{name, seed} → *product

func newProduct(t *testing.T, s Shape, seed int64) *product {
	t.Helper()
	key := [2]any{s.Name, seed}
	v, ok := references.Load(key)
	if !ok {
		v, _ = references.LoadOrStore(key, draw(t, s, seed))
	}
	pr := *v.(*product)
	var run exec
	pr.plan, run, pr.sig = buildPlan(t, s, stagegraph.Ablation{}, s.cfg(), s.Dims)
	for _, d := range s.dirs() {
		pr.out[d] = run(d, pr.in[d])
	}
	return &pr
}

// draw draws the shape's input from seed and computes the reference of every
// direction, checking spl, the paper's formula semantics, against it.
func draw(t *testing.T, s Shape, seed int64) *product {
	rng := rand.New(rand.NewSource(seed*7919 + int64(s.n())))
	pr := &product{s: s}
	x := cvec.Random(rng, s.n())
	if s.Real {
		for i := range x {
			x[i] = complex(real(x[i]), 0)
		}
		pr.in[fwd], pr.ref[fwd] = x, halfSpectrum(refDFT(x, fft1d.Forward, s.Dims), s.Dims)
		pr.in[inv], pr.ref[inv] = pr.ref[fwd], x
	} else {
		pr.in = [3][]complex128{x, x, x}
		pr.ref[fwd], pr.ref[bwd] = refDFT(x, fft1d.Forward, s.Dims), refDFT(x, fft1d.Inverse, s.Dims)
		pr.ref[inv] = scaled(pr.ref[bwd], 1/float64(len(x)))
	}
	full := spl.Eval(splDFT(s.Dims), x)
	if s.Real {
		full = halfSpectrum(full, s.Dims)
	}
	if e, b := cvec.RelErr(full, pr.ref[fwd]), accuracy.Bound(len(x)); e > b {
		t.Errorf("spl off the compensated DFT by %g (bound %g)", e, b)
	}
	return pr
}

// exec runs one direction of a path on input in and returns the output; nil
// when the path has no such direction.
type exec func(d dir, in []complex128) []complex128

// buildPlan builds the plan of s over dims (a real Shape may prepend a unit
// extent) under ablation ab, and returns it with its exec and its signature:
// the compiled graphs and the 1D chain of every lane extent, read while ab
// is installed.
func buildPlan(t *testing.T, s Shape, ab stagegraph.Ablation, cfg core.Config, dims []int) (*core.Plan, exec, string) {
	t.Helper()
	defer stagegraph.SetAblation(ab)()
	p, err := core.NewPlan(cfg, s.Real, dims...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	sig := p.DescribeGraph()
	for _, e := range s.lanes() {
		sig += " " + stagegraph.Plan1D(e).Kind()
	}
	return p, planExec(t, p, s.Real, 1), sig
}

// planExec runs a plan's own entry points on count arrays back to back:
// Transform, Inverse or TransformMany, ForwardReal or InverseReal.
func planExec(t *testing.T, p *core.Plan, realPlan bool, count int) exec {
	return func(d dir, in []complex128) []complex128 {
		var err error
		out := make([]complex128, count*p.Len())
		switch {
		case realPlan && d == fwd:
			out = out[:count*p.SpectrumLen()]
			err = p.ForwardReal(out, reals(in), count)
		case realPlan:
			back := make([]float64, count*p.Len())
			err = p.InverseReal(back, in, count)
			out = asComplex(back)
		case d == inv && count == 1:
			err = p.Inverse(out, in)
		case d == inv:
			return nil
		case count == 1:
			err = p.Transform(out, in, d.sign())
		default:
			err = p.TransformMany(out, in, count, d.sign())
		}
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		return out
	}
}

// path is one way through the system. A path without build runs the plan of
// the Shape under its ablation, with its cfg edit applied.
type path struct {
	name string
	ab   stagegraph.Ablation
	cfg  func(*core.Config)
	// runs reports whether the path can run shape s at all; nil, every shape.
	runs func(s Shape) bool
	// build returns the path's exec and, for a plan path, its plan.
	build func(t *testing.T, pr *product) (exec, *core.Plan)
	// differs reports where the path must change the product's signature.
	differs func(pr *product) bool
	// approx marks a path that changes the arithmetic: it is held to the
	// bound, not to the product's bits.
	approx bool
	// check asserts the path's structural columns on its plan.
	check func(t *testing.T, pr *product, p *core.Plan)
}

var oraclePaths = []path{
	{name: "default", build: func(t *testing.T, pr *product) (exec, *core.Plan) {
		return func(d dir, _ []complex128) []complex128 { return pr.out[d] }, pr.plan
	}, check: func(t *testing.T, pr *product, p *core.Plan) {
		if pr.s.inStore != 0 && p.ScalesInStore() != (pr.s.inStore > 0) {
			t.Errorf("scale in the last store = %v, want %v", p.ScalesInStore(), pr.s.inStore > 0)
		}
		if n := strings.Count(p.DescribeGraph(), "radix-4 fold"); pr.s.folded != 0 && n != pr.s.folded {
			t.Errorf("%d folded stages, want %d:\n%s", n, pr.s.folded, p.DescribeGraph())
		}
	}},
	{name: "nofold", ab: stagegraph.Ablation{NoFold: true}, runs: graphed, differs: productHas("radix-4 fold"),
		check: func(t *testing.T, pr *product, p *core.Plan) {
			if n := strings.Count(p.DescribeGraph(), "radix-4 fold"); n != 0 {
				t.Errorf("%d stages still fold", n)
			}
			if p.NonTemporalStages() == 0 && p.ScalesInStore() {
				t.Error("an unfolded cached last stage scales in its store")
			}
		}},
	{name: "regular", ab: stagegraph.Ablation{Stores: stagegraph.StoreRegular}, runs: graphed,
		differs: productHas("streaming"), check: func(t *testing.T, pr *product, p *core.Plan) {
			if n := p.NonTemporalStages(); n != 0 {
				t.Errorf("%d streaming stages under forced cached stores", n)
			}
		}},
	{name: "streaming", ab: stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, runs: graphed, differs: streams,
		check: checkStreaming},
	// One lane with streaming stores is one lane's soft DMA on every complex
	// graph: each stage's load folded into the first sweep, its next block
	// prefetched by the codelets and, where the kernels' sink takes the last
	// pass, its store folded into that pass. Its complex destinations start
	// a cache line; the midline path's start one element past one, so the
	// sink declines there and the store leg writes the same bits.
	{name: "streaming/lanes1", build: softDMA(0), check: checkSoftDMAAt(0)},
	{name: "streaming/lanes1/midline", build: softDMA(1), check: checkSoftDMAAt(1)},
	{name: "copyloads", ab: stagegraph.Ablation{CopyLoads: true}, runs: graphed, differs: productHas("load folded"),
		check: func(t *testing.T, pr *product, p *core.Plan) {
			if strings.Contains(p.DescribeGraph(), "load folded") {
				t.Error("a load is still folded into the first sweep")
			}
		}},
	// Without streaming stores nothing is pre-faulted, so the pre-fault
	// switch rides the streaming tier.
	{name: "noprefault", ab: stagegraph.Ablation{NoPrefault: true, Stores: stagegraph.StoreNonTemporal}, runs: graphed,
		differs: streams, check: func(t *testing.T, pr *product, p *core.Plan) {
			checkStreaming(t, pr, p)
			if b := p.Observability().PrefaultBytes; b != 0 {
				t.Errorf("%d bytes pre-faulted with the pre-fault off", b)
			}
		}},
	{name: "radix2", ab: stagegraph.Ablation{Radix: 2}, approx: true, differs: chainAbove(2)},
	{name: "radix4", ab: stagegraph.Ablation{Radix: 4}, approx: true, differs: chainAbove(4)},
	{name: "mu4/radix8", ab: stagegraph.Ablation{Radix: 8}, approx: true, differs: chainAbove(8),
		cfg:  func(c *core.Config) { c.Mu = 4 },
		runs: func(s Shape) bool { return s.Real || s.Dims[len(s.Dims)-1]%4 == 0 }},
	onLanes("lanes1", 1, graphed),
	onLanes("lanes2", 2, nil),
	onLanes("lanes3", 3, graphed),
	// The rows of the retired schedule variants keep their names. A worker
	// mix of d data and c compute goroutines is the plan on as many lanes,
	// d+c. "unfused" drained every stage before the next began, as every
	// lane plan does at its stage barriers; it ran the default 1+1 mix.
	onLanes("unfused", 2, graphed),
	onLanes("workers2x2", 4, nil),
	onLanes("workers3x3", 6, graphed),
	onLanes("workers2x4", 6, graphed),
	onLanes("unfused/workers1x3", 4, graphed),
	onLanes("unfused/workers2x3", 5, graphed),
	{name: "inplace", runs: func(s Shape) bool { return !s.Real }, build: inPlace},
	{name: "many", runs: func(s Shape) bool { return !s.Real || len(s.Dims) == 1 }, build: many(0)},
	manyOnLanes(2),
	manyOnLanes(3),
	{name: "padded", runs: IsReal, approx: true, build: padded},
	{name: "unitaxis", runs: func(s Shape) bool { return s.Real && len(s.Dims) == 2 }, build: unitAxis},
	{name: "shard2", runs: slabs(2), build: local(2)},
	{name: "shard4", runs: slabs(4), build: local(4)},
	{name: "serve", build: served(false)},
	{name: "serve-aliased", runs: func(s Shape) bool { return !s.Real && len(s.Dims) == 1 }, build: served(true)},
}

// onLanes is the path that plans shapes runs on l lanes, and holds a graph
// plan's telemetry to that many.
func onLanes(name string, l int, runs func(Shape) bool) path {
	return path{name: name, runs: runs, cfg: func(cfg *core.Config) { cfg.Lanes = l },
		check: func(t *testing.T, pr *product, p *core.Plan) {
			if n := len(p.Observability().Lanes); graphed(pr.s) && n != l {
				t.Errorf("the plan ran %d lanes, want %d", n, l)
			}
		}}
}

// manyOnLanes is the path that runs a real rank-1 batch on l lanes. The
// batch's rows are cut into blocks the lanes share — its three rows into
// three one-row blocks, 2:1 on two lanes — so each direction runs three.
func manyOnLanes(l int) path {
	return path{name: fmt.Sprintf("many/lanes%d", l), runs: func(s Shape) bool { return s.Real && len(s.Dims) == 1 },
		build: many(l), check: func(t *testing.T, pr *product, p *core.Plan) {
			if got, want := p.Observability().Steps, uint64(2*len(batchScales)); got != want {
				t.Errorf("the forward and inverse batches ran %d blocks, want %d", got, want)
			}
		}}
}

// graphed reports whether s compiles a stage graph: every Shape but a
// complex rank-1 one.
func graphed(s Shape) bool { return s.Real || len(s.Dims) > 1 }

func productHas(mark string) func(*product) bool {
	return func(pr *product) bool { return strings.Contains(pr.plan.DescribeGraph(), mark) }
}

func streams(*product) bool { return layout.NonTemporalAvailable() }

// chainAbove reports whether a lane's product chain has a power-of-two
// radix above cap, which the cap must split; a lane of at most 8 points is
// one codelet, which no cap splits.
func chainAbove(cap int) func(*product) bool {
	return func(pr *product) bool {
		for _, e := range pr.s.lanes() {
			for _, f := range strings.Fields(strings.Trim(stagegraph.Plan1D(e).Kind(), "stockham[]")) {
				var r int
				fmt.Sscan(f, &r)
				if e > 8 && r > cap && r&(r-1) == 0 {
					return true
				}
			}
		}
		return false
	}
}

// checkStreaming: forced streaming stores flag every stage of every graph
// where the host has the tier, and a complex Inverse's 1/N then rides the
// streaming store; without the tier it rides where the product's does.
func checkStreaming(t *testing.T, pr *product, p *core.Plan) {
	want := 0
	if layout.NonTemporalAvailable() {
		want = len(p.Observability().Stages)
	}
	if n := p.NonTemporalStages(); n != want {
		t.Errorf("%d streaming stages, want %d", n, want)
	}
	if in := pr.s.inStore > 0 || want > 0; pr.s.inStore != 0 && p.ScalesInStore() != in {
		t.Errorf("scale in the last store = %v under forced streaming stores, want %v", p.ScalesInStore(), in)
	}
}

func inPlace(t *testing.T, pr *product) (exec, *core.Plan) {
	p, _, _ := buildPlan(t, pr.s, stagegraph.Ablation{}, pr.s.cfg(), pr.s.Dims)
	return func(d dir, in []complex128) []complex128 {
		if d == inv {
			return nil
		}
		x := slices.Clone(in)
		if err := p.InPlace(x, d.sign()); err != nil {
			t.Fatal(err)
		}
		return x
	}, p
}

// batchScales are the factors of a batch's inputs: powers of two, so the
// outputs are the first one's scaled exactly, the sign of a zero aside.
var batchScales = []float64{1, 2, 0.5}

// batch runs the batchScales multiples of in, one after another, through
// run, holds the outputs to the first one scaled, and returns the first.
func batch(t *testing.T, d dir, in []complex128, run func(ins []complex128) []complex128) []complex128 {
	t.Helper()
	var ins []complex128
	for _, a := range batchScales {
		ins = append(ins, scaled(in, a)...)
	}
	out := run(ins)
	if out == nil {
		return nil
	}
	n := len(out) / len(batchScales)
	for i, a := range batchScales {
		for j, want := range scaled(out[:n], a) {
			if out[i*n+j] != want {
				t.Errorf("%v item %d: element %d is %v, want %v", d, i, j, out[i*n+j], want)
				break
			}
		}
	}
	return out[:n]
}

// many runs the batch in one call: TransformMany, or a real rank-1 plan's
// batched rows; on the given lanes, or the shape's with zero.
func many(lanes int) func(*testing.T, *product) (exec, *core.Plan) {
	return func(t *testing.T, pr *product) (exec, *core.Plan) {
		cfg := pr.s.cfg()
		if lanes != 0 {
			cfg.Lanes = lanes
		}
		p, _, _ := buildPlan(t, pr.s, stagegraph.Ablation{}, cfg, pr.s.Dims)
		run := planExec(t, p, pr.s.Real, len(batchScales))
		return func(d dir, in []complex128) []complex128 {
			return batch(t, d, in, func(ins []complex128) []complex128 { return run(d, ins) })
		}, p
	}
}

// padded runs a real grid through the complex plan of its extents.
func padded(t *testing.T, pr *product) (exec, *core.Plan) {
	p, run, _ := buildPlan(t, Shape{Dims: pr.s.Dims}, stagegraph.Ablation{}, pr.s.cfg(), pr.s.Dims)
	return func(d dir, in []complex128) []complex128 {
		if d != fwd {
			return nil
		}
		return halfSpectrum(run(fwd, in), pr.s.Dims)
	}, p
}

// unitAxis runs an n×m real grid as the 1×n×m one: the same pencils and
// the same DC/Nyquist split.
func unitAxis(t *testing.T, pr *product) (exec, *core.Plan) {
	p, run, _ := buildPlan(t, pr.s, stagegraph.Ablation{}, pr.s.cfg(), append([]int{1}, pr.s.Dims...))
	return run, p
}

// slabs reports whether sk slabs divide a complex k×n×m shape.
func slabs(sk int) func(Shape) bool {
	return func(s Shape) bool {
		return !s.Real && len(s.Dims) == 3 && s.Dims[0]%sk == 0 && s.Dims[1]%sk == 0
	}
}

// local runs the in-process sharded plan over sk slabs, unnormalized.
func local(sk int) func(*testing.T, *product) (exec, *core.Plan) {
	return func(t *testing.T, pr *product) (exec, *core.Plan) {
		k, n, m := pr.s.Dims[0], pr.s.Dims[1], pr.s.Dims[2]
		l, err := shard.NewLocal(k, n, m, sk, pr.s.mu, shard.WorkerOptions{BufferElems: pr.s.buf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		return func(d dir, in []complex128) []complex128 {
			if d == inv {
				return nil
			}
			out := make([]complex128, len(in))
			if err := l.Transform(out, in, d.sign()); err != nil {
				t.Fatal(err)
			}
			return out
		}, nil
	}
}

// served submits the batch at once to a server of the shape's configuration,
// which may run it as one batch; an aliased request's Dst is its Src.
func served(alias bool) func(*testing.T, *product) (exec, *core.Plan) {
	return func(t *testing.T, pr *product) (exec, *core.Plan) {
		s := pr.s
		srv := serve.New(serve.Options{Config: s.cfg(), MaxBatch: len(batchScales), Executors: 1})
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		return func(d dir, in []complex128) []complex128 {
			if d == bwd {
				return nil
			}
			return batch(t, d, in, func(ins []complex128) []complex128 {
				reqs := make([]serve.Request, len(batchScales))
				errs := make([]error, len(reqs))
				var wg sync.WaitGroup
				for i := range reqs {
					src := ins[i*len(in) : (i+1)*len(in)]
					r := serve.Request{Rank: len(s.Dims), Real: s.Real, Inverse: d == inv, Src: src,
						Dst: make([]complex128, len(pr.ref[d]))}
					copy(r.Dims[:], s.Dims)
					switch {
					case alias:
						r.Dst = src
					case s.Real && d == fwd:
						r.RealSrc, r.Src = reals(src), nil
					case s.Real:
						r.RealDst, r.Dst = make([]float64, len(pr.ref[d])), nil
					}
					reqs[i] = r
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = srv.Do(context.Background(), reqs[i])
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				var out []complex128
				for _, r := range reqs {
					out = append(append(out, r.Dst...), asComplex(r.RealDst)...)
				}
				return out
			})
		}, nil
	}
}

// softDMA builds the one-lane streaming path: the shape's plan on one lane
// under forced streaming stores, which must change the product's graph
// wherever it has one, writing its complex results into destinations that
// start off elements past a cache line (real ones into planExec's).
func softDMA(off int) func(t *testing.T, pr *product) (exec, *core.Plan) {
	return func(t *testing.T, pr *product) (exec, *core.Plan) {
		s := pr.s
		cfg := s.cfg()
		cfg.Lanes = 1
		p, run, sig := buildPlan(t, s, stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal}, cfg, s.Dims)
		if graphed(s) && streams(pr) && sig == pr.sig {
			t.Errorf("one lane's streaming stores change neither the product's graph nor its chains:\n%s", sig)
		}
		if s.Real {
			return run, p
		}
		return func(d dir, in []complex128) []complex128 {
			out := offLine(len(in), off)
			var err error
			if d == inv {
				err = p.Inverse(out, in)
			} else {
				err = p.Transform(out, in, d.sign())
			}
			if err != nil {
				t.Fatalf("%v: %v", d, err)
			}
			return out
		}, p
	}
}

// offLine returns n elements whose first starts off elements past a 64-byte
// cache line.
func offLine(n, off int) []complex128 {
	raw := make([]complex128, n+off+4)
	for a := range 4 {
		if uintptr(unsafe.Pointer(&raw[a]))%64 == 0 {
			return raw[a+off : a+off+n]
		}
	}
	panic("coretest: no line-aligned start")
}

// checkSoftDMAAt is checkSoftDMA plus the last stage's store, whose
// destination — the caller's, off elements past a line — decides whether the
// kernels' sink takes it: when the graph folds that store, a line-aligned
// destination leaves no store leg wherever the codelet tier runs, and one off
// the line grid makes the sink decline and the store leg run.
func checkSoftDMAAt(off int) func(t *testing.T, pr *product, p *core.Plan) {
	return func(t *testing.T, pr *product, p *core.Plan) {
		checkSoftDMA(t, pr, p)
		if !graphed(pr.s) || pr.s.Real {
			return
		}
		lines := strings.Split(strings.TrimSpace(p.DescribeGraph()), "\n")
		stages := p.Observability().Stages
		last := len(stages) - 1
		if !strings.Contains(lines[1+last], "store folded into the last sweep") {
			return
		}
		switch ns := stages[last].Store.Ns; {
		case off == 0 && ns != 0 && kernels.Tier() == "avx2":
			t.Errorf("the last stage folds its store, yet its store leg ran %d ns", ns)
		case off != 0 && ns == 0:
			t.Error("the last stage ran no store leg into a destination off the line grid")
		}
	}
}

// checkSoftDMA: on one lane with forced streaming stores, every stage of a
// complex graph folds its load and prefetches its next block where the host
// has the streaming tier, and no stage of a real graph prefetches.
func checkSoftDMA(t *testing.T, pr *product, p *core.Plan) {
	if !graphed(pr.s) {
		return
	}
	checkStreaming(t, pr, p)
	if n := len(p.Observability().Lanes); n != 1 {
		t.Errorf("the plan ran %d lanes, want 1", n)
	}
	desc, want := p.DescribeGraph(), 0
	if !pr.s.Real && layout.NonTemporalAvailable() {
		want = len(p.Observability().Stages)
		if n := strings.Count(desc, "load folded"); n != want {
			t.Errorf("%d stages fold their loads, want %d:\n%s", n, want, desc)
		}
	}
	if n := strings.Count(desc, "next block prefetched"); n != want {
		t.Errorf("%d stages prefetch their next block, want %d:\n%s", n, want, desc)
	}
}

// rowsRun records, by seed, shape and path, whether a row that already ran
// in this test binary failed: a slice repeats the verdict of the whole
// table's run of a row rather than the row.
var rowsRun sync.Map // [3]any{seed, shape, path} → failed bool

// runOracle runs every path that can run each shape, as subtests shape/path,
// on inputs drawn from seed.
func runOracle(t *testing.T, seed int64, shapes []Shape, paths []path) {
	for _, s := range shapes {
		t.Run(s.Name, func(t *testing.T) {
			var pr *product
			for _, pa := range paths {
				if pa.runs != nil && !pa.runs(s) {
					continue
				}
				key := [3]any{seed, s.Name, pa.name}
				failed, ran := rowsRun.Load(key)
				if !ran && pr == nil {
					pr = newProduct(t, s, seed)
				}
				t.Run(pa.name, func(t *testing.T) {
					if ran {
						if failed.(bool) {
							t.Error("failed where it ran first in this test binary")
						}
						return
					}
					defer func() { rowsRun.Store(key, t.Failed()) }()
					pa.row(t, pr)
				})
			}
		})
	}
}

// row runs one path on one Shape and checks it.
func (pa path) row(t *testing.T, pr *product) {
	s := pr.s
	var run exec
	var p *core.Plan
	if pa.build != nil {
		run, p = pa.build(t, pr)
	} else {
		cfg := s.cfg()
		if pa.cfg != nil {
			pa.cfg(&cfg)
		}
		var sig string
		p, run, sig = buildPlan(t, s, pa.ab, cfg, s.Dims)
		if pa.differs != nil && pa.differs(pr) && sig == pr.sig {
			t.Errorf("%s changes neither the product's graph nor its chains:\n%s", pa.name, sig)
		}
	}
	var got [3][]complex128
	bound := accuracy.Bound(s.n())
	for _, d := range s.dirs() {
		if got[d] = run(d, pr.in[d]); got[d] == nil {
			continue
		}
		if e := cvec.RelErr(got[d], pr.ref[d]); e > bound {
			t.Errorf("%v: relative L2 error %g against the compensated DFT, bound %g", d, e, bound)
		}
		if !pa.approx {
			sameBits(t, d.String()+" against the product", got[d], pr.out[d])
		}
	}
	if got[inv] != nil && got[bwd] != nil {
		sameBits(t, "Inverse against Transform then Scale", got[inv], scaled(got[bwd], 1/float64(s.n())))
	}
	if pa.check != nil {
		pa.check(t, pr, p)
	}
}

func sameBits(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Errorf("%s: element %d is %v, want %v (bitwise)", label, i, got[i], want[i])
	}
}

// refDFT applies the compensated direct DFT along every axis of the
// row-major array x of extents dims, unnormalized in both directions.
func refDFT(x []complex128, sign int, dims []int) []complex128 {
	y := slices.Clone(x)
	stride := len(x)
	for _, d := range dims {
		stride /= d
		roots := twiddle.Roots(d)
		line, out := make([]complex128, d), make([]complex128, d)
		for base := range y {
			if base/stride%d != 0 {
				continue
			}
			for i := range line {
				line[i] = y[base+i*stride]
			}
			for k := range out {
				out[k] = bin(line, roots, k, sign)
			}
			for k, v := range out {
				y[base+k*stride] = v
			}
		}
	}
	return y
}

// bin is accuracy.Bin, bit for bit, over tabulated roots of unity: bin k of
// the Kahan-compensated direct DFT of x.
func bin(x, roots []complex128, k, sign int) complex128 {
	var sumR, sumI, compR, compI float64
	for l, v := range x {
		w := roots[k*l%len(x)]
		if sign == fft1d.Inverse {
			w = complex(real(w), -imag(w))
		}
		p := w * v
		tR := sumR + (real(p) - compR)
		compR = (tR - sumR) - (real(p) - compR)
		sumR = tR
		tI := sumI + (imag(p) - compI)
		compI = (tI - sumI) - (imag(p) - compI)
		sumI = tI
	}
	return complex(sumR, sumI)
}

// splDFT is the paper's formula of the DFT of extents dims: one
// I ⊗ DFT ⊗ I factor per axis.
func splDFT(dims []int) spl.Formula {
	pre, post := 1, 1
	for _, e := range dims {
		post *= e
	}
	var fs []spl.Formula
	for _, e := range dims {
		post /= e
		fs = append(fs, spl.KronAll(spl.I(pre), spl.DFT(e), spl.I(post)))
		pre *= e
	}
	return spl.Compose(fs...)
}

// halfSpectrum keeps the first m/2+1 bins of every row of a full spectrum of
// extents dims.
func halfSpectrum(full []complex128, dims []int) []complex128 {
	m := dims[len(dims)-1]
	var h []complex128
	for r := 0; r < len(full)/m; r++ {
		h = append(h, full[r*m:r*m+m/2+1]...)
	}
	return h
}

func scaled(x []complex128, a float64) []complex128 {
	y := slices.Clone(x)
	fft1d.Scale(y, a)
	return y
}

func reals(x []complex128) []float64 {
	r := make([]float64, len(x))
	for i, v := range x {
		r[i] = real(v)
	}
	return r
}

func asComplex(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return c
}

// Slice runs, on the first committed seed, the oracle rows of the shapes keep
// selects and of the named paths (every path when none is named).
func Slice(t *testing.T, keep func(Shape) bool, names ...string) {
	shapes := slices.DeleteFunc(slices.Clone(oracleShapes), func(s Shape) bool { return !keep(s) })
	paths := slices.DeleteFunc(slices.Clone(oraclePaths), func(pa path) bool {
		return len(names) > 0 && !slices.Contains(names, pa.name)
	})
	runOracle(t, oracleSeeds[0], shapes, paths)
}

// Rank selects the shapes of one domain and rank.
func Rank(real bool, r int) func(Shape) bool {
	return func(s Shape) bool { return s.Real == real && len(s.Dims) == r }
}

// Named selects shapes by name.
func Named(names ...string) func(Shape) bool {
	return func(s Shape) bool { return slices.Contains(names, s.Name) }
}

// IsReal selects the real shapes.
func IsReal(s Shape) bool { return s.Real }

// ScalesInverse selects the complex shapes of rank r that declare where their
// Inverse scale rides.
func ScalesInverse(r int) func(Shape) bool {
	return func(s Shape) bool { return s.inStore != 0 && len(s.Dims) == r }
}

package stagegraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/trace"
)

// A 2D graph whose first sweeps read their source (Stage.FoldLoad, the
// product inside the LLC) agrees bit for bit with the same graph built under
// Ablation.CopyLoads, on one lane and on two, forward and normalised inverse — the
// inverse reading the forward's destination as its source. The shapes cover
// 512² (store-fold prefix [8 16], an even stage count), 32×64 (prefixes [8]
// and [16], odd), 256² (an unfolded [16 16] chain), 96×80 (chains [5 4 4]
// and [3 8 4]) and 97×64 (Bluestein columns); under -tags purego the generic tier is held to
// the same. The telemetry of a folded stage keeps its load bytes exact,
// records no load time and derives no rate from them.
func TestFoldedLoadsMatchCopiedLoads(t *testing.T) {
	const marker = "load folded into the first sweep"
	for _, c := range []struct{ n, m int }{{512, 512}, {32, 64}, {256, 256}, {96, 80}, {97, 64}} {
		elems := c.n * c.m
		src := cvec.Random(rand.New(rand.NewSource(int64(elems))), elems)
		for _, lanes := range []int{1, 2} {
			run := func(copyLoads bool) (fwd, inv []complex128, snap obs.Snapshot, desc string) {
				restore := SetAblation(Ablation{CopyLoads: copyLoads})
				defer restore()
				g, err := Pencils{Pkg: "test", Dims: []int{c.n, c.m},
					Plans: []*fft1d.Plan{Plan1D(c.n), Plan1D(c.m)},
					Mid:   []Array{{C: make([]complex128, elems)}}}.Build()
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(RunnerConfig{Pkg: "test", Lanes: lanes,
					Labels: []string{fmt.Sprintf("test/loadfold/%dx%d", c.n, c.m)}}, g)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				fwd, inv = make([]complex128, elems), make([]complex128, elems)
				if err := r.Run(0, Call{In: Endpoint{C: src}, Out: Endpoint{C: fwd}, Sign: fft1d.Forward}); err != nil {
					t.Fatal(err)
				}
				if err := r.Run(0, Call{In: Endpoint{C: fwd}, Out: Endpoint{C: inv}, Sign: fft1d.Inverse,
					Scale: 1 / float64(elems)}); err != nil {
					t.Fatal(err)
				}
				return fwd, inv, r.Observability(), r.DescribeGraph()
			}
			name := fmt.Sprintf("%d×%d on %d lanes", c.n, c.m, lanes)
			fwd, inv, snap, desc := run(false)
			cfwd, cinv, csnap, cdesc := run(true)
			if i := cvec.FirstBitDiff(fwd, cfwd); i >= 0 {
				t.Fatalf("%s: forward element %d: folded %v, copied %v", name, i, fwd[i], cfwd[i])
			}
			if i := cvec.FirstBitDiff(inv, cinv); i >= 0 {
				t.Fatalf("%s: inverse element %d: folded %v, copied %v", name, i, inv[i], cinv[i])
			}
			if got := strings.Count(desc, marker); got != 2 {
				t.Fatalf("%s: %d stages described as folded, want 2:\n%s", name, got, desc)
			}
			if strings.Contains(cdesc, marker) {
				t.Fatalf("%s: CopyLoads graph described as folded:\n%s", name, cdesc)
			}
			want := uint64(2 * elems * complexBytes) // two runs, every element once
			for i, st := range snap.Stages {
				cst := csnap.Stages[i]
				if st.Load.Bytes != want || st.Store.Bytes != want || cst.Load.Bytes != want {
					t.Fatalf("%s stage %s: load/store bytes %d/%d (copied load %d), want %d",
						name, st.Name, st.Load.Bytes, st.Store.Bytes, cst.Load.Bytes, want)
				}
				if st.Load.Ns != 0 || st.Load.GBs != 0 || st.GBs != st.Store.GBs {
					t.Fatalf("%s stage %s: folded load reports %d ns at %v GB/s, stage %v GB/s against the store's %v",
						name, st.Name, st.Load.Ns, st.Load.GBs, st.GBs, st.Store.GBs)
				}
				if cst.Load.Ns == 0 {
					t.Fatalf("%s stage %s: copied load recorded no time", name, st.Name)
				}
			}
		}
	}
}

// An in-cache complex 2D graph folds its loads and a 3D graph keeps them;
// fitsLLC, the footprint rule shared with the store tier, draws the line at
// half the LLC.
func TestLoadFoldScope(t *testing.T) {
	folds := func(g *Graph) bool {
		for i := range g.stages {
			if g.stages[i].FoldLoad {
				return true
			}
		}
		return false
	}
	g3, err := Pencils{Pkg: "test", Dims: []int{16, 16, 16},
		Plans: []*fft1d.Plan{Plan1D(16), Plan1D(16), Plan1D(16)},
		Mid:   []Array{{C: make([]complex128, 4096)}, {C: make([]complex128, 4096)}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if folds(g3) {
		t.Error("a 3D graph folds its loads")
	}
	g2, err := Pencils{Pkg: "test", Dims: []int{64, 64},
		Plans: []*fft1d.Plan{Plan1D(64), Plan1D(64)}, Mid: []Array{{C: make([]complex128, 64*64)}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !folds(g2) {
		t.Error("an in-cache complex 2D graph copies its loads")
	}
	for _, c := range []struct {
		bytes, llc int
		want       bool
	}{{4 << 20, 300 << 20, true}, {150 << 20, 300 << 20, true}, {256 << 20, 300 << 20, false}, {1, 0, true}} {
		if got := fitsLLC(c.bytes, c.llc); got != c.want {
			t.Errorf("fitsLLC(%d, %d) = %v, want %v", c.bytes, c.llc, got, c.want)
		}
	}
}

// A folded load reads its block's slice of the source in the compute op,
// after the stage barrier that follows the producer's last store and before
// the one that precedes the next overwrite: on one to three lanes, a traced
// round trip of an in-cache 2D graph records no load op, and every compute
// and store falls in its lane's share and its stage's window (CheckLanes).
// The round trip is 2D's whole array reuse: src → Mid → dst, then the
// inverse reading dst and reusing Mid.
func TestFoldedReadsStayLegal(t *testing.T) {
	const n, m = 32, 64
	src := cvec.Random(rand.New(rand.NewSource(7)), n*m)
	for lanes := 1; lanes <= 3; lanes++ {
		g, err := Pencils{Pkg: "test", Dims: []int{n, m}, BufferElems: 256,
			Plans: []*fft1d.Plan{Plan1D(n), Plan1D(m)},
			Mid:   []Array{{C: make([]complex128, n*m)}}}.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(RunnerConfig{Pkg: "test", Lanes: lanes}, g)
		if err != nil {
			t.Fatal(err)
		}
		fwd, inv := make([]complex128, n*m), make([]complex128, n*m)
		for _, c := range []Call{
			{In: Endpoint{C: src}, Out: Endpoint{C: fwd}, Sign: fft1d.Forward},
			{In: Endpoint{C: fwd}, Out: Endpoint{C: inv}, Sign: fft1d.Inverse, Scale: 1.0 / (n * m)},
		} {
			c.Tracer = trace.New()
			if err := r.Run(0, c); err != nil {
				t.Fatal(err)
			}
			for _, e := range c.Tracer.Events() {
				if e.Op == trace.Load {
					t.Fatalf("%d lanes: stage %d recorded a load op", lanes, e.Stage)
				}
			}
			if err := c.Tracer.CheckLanes(r.Iters(0), lanes); err != nil {
				t.Fatalf("%d lanes, sign %d: %v", lanes, c.Sign, err)
			}
		}
		r.Close()
	}
}

// One lane's soft DMA: on one lane, a complex graph whose stores stream —
// 2D or 3D — folds every load and prefetches every stage's next block, and
// Describe names both. Two lanes, a real graph, a shard's slab and
// CopyLoads keep their loads and prefetch nothing. A stage's cursor is the
// lane's next block of Src, whole lines a body, and empty on the share's
// last block.
func TestSoftDMAScope(t *testing.T) {
	if !layout.NonTemporalAvailable() {
		t.Skip("no streaming-store tier: no graph prefetches")
	}
	build := func(ab Ablation, p Pencils) *Graph {
		t.Helper()
		ab.Stores = StoreNonTemporal
		defer SetAblation(ab)()
		for _, d := range p.Dims {
			p.Plans = append(p.Plans, Plan1D(d))
		}
		for range p.Dims[1:] {
			p.Mid = append(p.Mid, Array{C: make([]complex128, 16*16*16)})
		}
		g, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cube, square := []int{16, 16, 16}, []int{64, 64}
	for _, c := range []struct {
		name     string
		ab       Ablation
		p        Pencils
		fold, pf bool
	}{
		{"3D on one lane", Ablation{}, Pencils{Dims: cube}, true, true},
		{"2D on one lane", Ablation{}, Pencils{Dims: square}, true, true},
		{"3D on two lanes", Ablation{}, Pencils{Dims: cube, Lanes: 2}, false, false},
		{"2D on two lanes", Ablation{}, Pencils{Dims: square, Lanes: 2}, true, false}, // in the LLC
		{"a shard's slab", Ablation{}, Pencils{Dims: cube, Shards: 2}, false, false},
		{"CopyLoads", Ablation{CopyLoads: true}, Pencils{Dims: cube}, false, false},
		{"real 3D", Ablation{}, Pencils{Dims: []int{16, 16, 8}, Real: &RealEnd{Pitch: 9,
			Untangle: func([]complex128, int) {}}}, false, false},
	} {
		c.p.Pkg = "test"
		g := build(c.ab, c.p)
		desc := Describe(g.stages)
		for i := range g.stages {
			st := &g.stages[i]
			if st.FoldLoad != c.fold || (st.Prefetch != 0) != c.pf {
				t.Errorf("%s: stage %d folds %v, prefetches %d B a body; want %v, %v:\n%s",
					c.name, i, st.FoldLoad, st.Prefetch, c.fold, c.pf, desc)
			}
			if c.pf && st.Prefetch%64 != 0 {
				t.Errorf("%s: stage %d prefetches %d B a body, not whole lines", c.name, i, st.Prefetch)
			}
		}
		if n, want := strings.Count(desc, "next block prefetched"), len(g.stages); c.pf && n != want {
			t.Errorf("%s: %d stages described as prefetching, want %d:\n%s", c.name, n, want, desc)
		}
	}

	g := build(Ablation{}, Pencils{Pkg: "test", Dims: cube})
	st := &g.stages[1]
	st.Src = Endpoint{C: make([]complex128, 16*16*16)}
	n, last := st.BlockElems(), st.Iters-1
	if got, want := st.prefetch(0, st.Iters), kernels.NewPrefetch(st.Src.C[n:2*n], st.Prefetch); got != want {
		t.Errorf("block 0's cursor is %+v, want the next block's %+v", got, want)
	}
	if got := st.prefetch(last, st.Iters); got != (kernels.Prefetch{}) {
		t.Errorf("the share's last block asks for %+v, want nothing", got)
	}
}

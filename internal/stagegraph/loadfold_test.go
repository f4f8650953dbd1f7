package stagegraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/obs"
)

// A 2D graph whose first sweeps read their source (Stage.FoldLoad, the
// product inside the LLC) agrees bit for bit with the same graph built under
// Ablation.CopyLoads, fused and unfused, forward and normalised inverse — the
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
		for _, unfused := range []bool{false, true} {
			run := func(copyLoads bool) (fwd, inv []complex128, snap obs.Snapshot, desc string) {
				restore := SetAblation(Ablation{Unfused: unfused, CopyLoads: copyLoads})
				defer restore()
				g, err := Pencils{Pkg: "test", Dims: []int{c.n, c.m},
					Plans: []*fft1d.Plan{Plan1D(c.n), Plan1D(c.m)},
					Mid:   []Array{{C: make([]complex128, elems)}}}.Build()
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(RunnerConfig{Pkg: "test", DataWorkers: 2, ComputeWorkers: 2,
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
			name := fmt.Sprintf("%d×%d unfused=%v", c.n, c.m, unfused)
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

// chainStage names the arrays one stage of a replayed chain reads and writes.
type chainStage struct {
	iters    int
	src, dst string
}

// access is one read or store of an array, over [lo, hi) in half-steps: a
// step's stores run in its first half (before the data barrier), its loads
// in its second, and its compute op across the whole step, concurrently
// with both.
type access struct {
	array  string
	stage  int
	lo, hi int
}

// replayReads plays BuildSchedule's tables for the chain and checks every
// read of a stage's source against every store into that array: a store by
// an earlier stage must end before the read begins, one by a later stage
// must begin after it ends. lag < 0 places each read in its slot's load op,
// as a copied load runs; lag ≥ 0 in the compute op lag steps after the load
// slot — 1 is where a folded load reads.
func replayReads(chain []chainStage, fused bool, lag int) error {
	stages := make([]Stage, len(chain))
	for i, c := range chain {
		stages[i].Iters = c.iters
	}
	loadAt, _, storeAt, steps := BuildSchedule(stages, fused)
	var reads, stores []access
	for t := 0; t < steps; t++ {
		if r := storeAt[t]; r.stage >= 0 {
			stores = append(stores, access{chain[r.stage].dst, r.stage, 2 * t, 2*t + 1})
		}
		if r := loadAt[t]; r.stage >= 0 {
			a := access{chain[r.stage].src, r.stage, 2*t + 1, 2*t + 2}
			if lag >= 0 {
				a.lo, a.hi = 2*(t+lag), 2*(t+lag)+2
			}
			reads = append(reads, a)
		}
	}
	for _, r := range reads {
		for _, w := range stores {
			switch {
			case w.array != r.array:
			case w.stage < r.stage && w.hi > r.lo:
				return fmt.Errorf("stage %d reads %s at half-step %d, before stage %d's store into it ends at %d",
					r.stage, r.array, r.lo, w.stage, w.hi)
			case w.stage > r.stage && w.lo < r.hi:
				return fmt.Errorf("stage %d reads %s until half-step %d, after stage %d's store into it begins at %d",
					r.stage, r.array, r.hi, w.stage, w.lo)
			}
		}
	}
	return nil
}

// Moving every read of a stage's source from its load op to the compute op
// one step later keeps BuildSchedule's legality argument, fused and
// unfused: each read follows the last store into its array and precedes the
// next overwrite. The chains are the 2D round trip src → Mid → dst followed
// by the inverse that reads dst as its source and reuses Mid, and the 3D
// chain that reuses dst at distance two, at deep and at single-iteration
// stages. A compute op reading in its own load step races the producer's
// last store on a fused boundary, which the replay must catch.
func TestFoldedReadsStayLegal(t *testing.T) {
	roundTrip := []string{"src", "mid", "dst", "mid", "out"}
	threeD := []string{"src", "dst", "work", "dst"}
	chain := func(arrays []string, iters ...int) []chainStage {
		c := make([]chainStage, len(iters))
		for i, n := range iters {
			c[i] = chainStage{iters: n, src: arrays[i], dst: arrays[i+1]}
		}
		return c
	}
	chains := map[string][]chainStage{
		"2D round trip, 16 iters":  chain(roundTrip, 16, 16, 16, 16),
		"2D round trip, 1 iter":    chain(roundTrip, 1, 1, 1, 1),
		"2D round trip, mixed":     chain(roundTrip, 3, 1, 2, 5),
		"3D src→dst→work→dst":      chain(threeD, 16, 16, 16),
		"3D, single-iter interior": chain(threeD, 2, 1, 1),
	}
	for name, c := range chains {
		for _, fused := range []bool{true, false} {
			if err := replayReads(c, fused, -1); err != nil {
				t.Fatalf("%s fused=%v, copied loads: %v", name, fused, err)
			}
			if err := replayReads(c, fused, 1); err != nil {
				t.Fatalf("%s fused=%v, folded loads: %v", name, fused, err)
			}
		}
		if err := replayReads(c, true, 0); err == nil {
			t.Fatalf("%s: a compute op reading in its load step passed the replay", name)
		}
	}
}

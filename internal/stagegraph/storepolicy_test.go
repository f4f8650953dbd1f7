package stagegraph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/layout"
)

func TestStorePolicyDecide(t *testing.T) {
	nt := layout.NonTemporalAvailable()
	const llc = 8 << 20
	cases := []struct {
		policy StorePolicy
		dest   int
		want   bool
	}{
		{StoreRegular, llc * 4, false},
		{StoreNonTemporal, 0, nt},
		{StoreAuto, llc / 4, false}, // fits in cache
		{StoreAuto, llc * 4, nt},    // spills
		{StoreAuto, llc/2 + 1, nt},  // just over the threshold
		{StoreAuto, llc / 2, false}, // exactly at threshold: cached
	}
	for _, c := range cases {
		if got := c.policy.Decide(c.dest, llc); got != c.want {
			t.Errorf("%v.Decide(%d, %d) = %v; want %v", c.policy, c.dest, llc, got, c.want)
		}
	}
	if StoreAuto.Decide(1<<30, 0) {
		t.Error("StoreAuto with unknown LLC must stay regular")
	}
}

// A graph must produce identical output with streaming stores: NT is a
// pure traffic optimisation, never a semantic one.
func TestNonTemporalStoreEquivalence(t *testing.T) {
	const iters, units, unitLen = 4, 4, 8
	n := iters * units * unitLen
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%17)+1, float64(i%5)-2)
	}
	run := func(nt bool) []complex128 {
		mids := [][]complex128{make([]complex128, n)}
		dst := make([]complex128, n)
		stages := chainGraph(src, mids, dst, iters, units, unitLen, 3)
		for i := range stages {
			stages[i].NonTemporal = nt
		}
		if err := runOnce(2, nil, stages, nil); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := run(false)
	got := run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: NT store produced %v, regular %v", i, got[i], want[i])
		}
	}
}

// legNames are the modes legString prints, in Describe's order, with the
// words Describe names them by.
var legNames = [][2]string{
	{"radix-4", "radix-4 fold"},
	{"streaming", "streaming"},
	{"load", "load folded into the first sweep"},
	{"prefetch", "next block prefetched"},
	{"store", "store folded into the last sweep"},
}

// legString names stage st's leg modes: its store's radix-4 butterfly, the
// streaming tier, the load and store folded into the first and last sweeps,
// and the next-block prefetch.
func legString(st *Stage) string {
	on := []bool{st.StoreRadix == 4, st.NonTemporal, st.FoldLoad, st.Prefetch != 0, st.FoldStore}
	var m []string
	for i, n := range legNames {
		if on[i] {
			m = append(m, n[0])
		}
	}
	return strings.Join(m, " ")
}

// legGraph builds p's graph under ab on a host with the given LLC and, unless
// p sets its own, a 16 Ki-element block budget.
func legGraph(t *testing.T, ab Ablation, llc int, p Pencils) *Graph {
	t.Helper()
	ab.Host = HostSizes{BufferElems: 1 << 14, LLCBytes: llc}
	defer SetAblation(ab)()
	p.Pkg = "test"
	n := 1
	for _, d := range p.Dims {
		p.Plans = append(p.Plans, Plan1D(d))
		n *= d
	}
	for range p.Dims[1:] {
		p.Mid = append(p.Mid, Array{C: make([]complex128, n)})
	}
	g, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// legRow is one case of the leg policy's scope (legModes): a graph built
// under ab on a host with the given LLC, and each stage's leg modes as
// legString names them.
type legRow struct {
	name string
	llc  int
	ab   Ablation
	p    Pencils
	want []string // by stage
}

// The LLC bytes of a row's host: every row's per-stage footprint is 32 KiB
// to 1 MiB, so "in" holds it twice and "past" does not.
const legIn, legPast = 1 << 30, 16 << 10

// checkLegRows builds each row on one lane and on two — the lane count is
// not an input, so a two-lane streaming stage runs the one-lane soft DMA —
// and checks each stage's leg modes as Pencils.Build sets them and Describe
// names them. Rows that stream need the streaming tier and are skipped
// without it. A prefetch asks for whole lines a body.
func checkLegRows(t *testing.T, rows []legRow) {
	t.Helper()
	for _, c := range rows {
		if strings.Contains(strings.Join(c.want, " "), "streaming") && !layout.NonTemporalAvailable() {
			t.Logf("%s: skipped, no streaming-store tier", c.name)
			continue
		}
		for _, lanes := range []int{1, 2} {
			p := c.p
			p.Lanes = lanes
			g := legGraph(t, c.ab, c.llc, p)
			desc := Describe(g.stages)
			lines := strings.Split(desc, "\n")[1:]
			if len(g.stages) != len(c.want) {
				t.Fatalf("%s: %d stages, the row lists %d", c.name, len(g.stages), len(c.want))
			}
			for i := range g.stages {
				st := &g.stages[i]
				got := legString(st)
				if got != c.want[i] {
					t.Errorf("%s on %d lanes: stage %d legs %q, want %q:\n%s", c.name, lanes, i, got, c.want[i], desc)
				}
				for _, n := range legNames {
					if on := slices.Contains(strings.Fields(got), n[0]); on != strings.Contains(lines[i], n[1]) {
						t.Errorf("%s on %d lanes: stage %d legs %q, but Describe names %q: %v:\n%s", c.name, lanes, i, got, n[1], !on, desc)
					}
				}
				if st.Prefetch%64 != 0 {
					t.Errorf("%s: stage %d prefetches %d B a body, not whole lines", c.name, i, st.Prefetch)
				}
			}
		}
	}
}

// A soft-DMA stage's modes: plain, with the radix-4 store fold, and with its
// store folded into the last sweep.
const (
	soft  = "streaming load prefetch"
	soft4 = "radix-4 streaming load prefetch"
	sunk  = "streaming load prefetch store"
)

var cube, square, w256 = []int{16, 16, 16}, []int{64, 64}, []int{256, 256}

func realEnd(pitch int) *RealEnd {
	return &RealEnd{Pitch: pitch, Untangle: func([]complex128, int) {}}
}

// The soft DMA's scope: which stages stream, fold their loads into the
// first sweep and prefetch their next block, by rank, domain, partition and
// footprint, with the ablations that force or drop it. A lane's cursor is
// its own next block of Src, empty on its share's last block.
func TestSoftDMAScope(t *testing.T) {
	checkLegRows(t, []legRow{
		// Rank × inside / past half the LLC, complex: inside, a 2D stage's
		// first sweep reads its source and a 3D stage keeps its load; past
		// it, every stage streams and runs the soft DMA. 16 = [4 4] and 64 =
		// [16 4] end in radix 4, which the store applies (not on 16³'s
		// x-pencils: 16/μ = 2 blocks), and which the sink does not take.
		{"2D in the LLC", legIn, Ablation{}, Pencils{Dims: square}, []string{"radix-4 load", "radix-4 load"}},
		{"3D in the LLC", legIn, Ablation{}, Pencils{Dims: cube}, []string{"", "radix-4", "radix-4"}},
		{"2D past the LLC", legPast, Ablation{}, Pencils{Dims: square}, []string{soft4, soft4}},
		{"3D past the LLC", legPast, Ablation{}, Pencils{Dims: cube}, []string{soft, soft4, soft4}},
		// Partition and domain: a shard's slab and real graphs stream but
		// keep their loads and stores, and a real graph keeps its load in
		// the LLC too.
		{"a shard's slab", legPast, Ablation{}, Pencils{Dims: cube, Shards: 2}, []string{"streaming", "radix-4 streaming", "radix-4 streaming"}},
		{"real 3D", legPast, Ablation{}, Pencils{Dims: []int{16, 16, 8}, Real: realEnd(9)}, []string{"streaming", "radix-4 streaming", "radix-4 streaming"}},
		{"real 2D in the LLC", legIn, Ablation{}, Pencils{Dims: []int{16, 256}, Real: realEnd(129)}, []string{"", "radix-4"}},
		// Ablation: a forced tier sets the soft DMA on or off with it;
		// NoFold and CopyLoads override what the policy chose.
		{"streaming forced in the LLC", legIn, Ablation{Stores: StoreNonTemporal}, Pencils{Dims: square}, []string{soft4, soft4}},
		{"cached forced past the LLC", legPast, Ablation{Stores: StoreRegular}, Pencils{Dims: square}, []string{"radix-4", "radix-4"}},
		{"NoFold, radix-4 chains", legPast, Ablation{NoFold: true}, Pencils{Dims: square}, []string{soft, soft}},
		{"CopyLoads, 3D", legPast, Ablation{CopyLoads: true}, Pencils{Dims: cube}, []string{"streaming", "radix-4 streaming", "radix-4 streaming"}},
	})

	if !layout.NonTemporalAvailable() {
		return
	}
	for _, lanes := range []int{1, 2} {
		g := legGraph(t, Ablation{}, legPast, Pencils{Dims: cube, Lanes: lanes})
		st := &g.stages[1]
		st.Src = Endpoint{C: make([]complex128, 16*16*16)}
		n := st.BlockElems()
		for lane := range lanes {
			lo, hi := Partition(st.Iters, lane, lanes)
			if got, want := st.prefetch(lo, hi), kernels.NewPrefetch(st.Src.C[(lo+1)*n:(lo+2)*n], st.Prefetch); got != want {
				t.Errorf("%d lanes: lane %d's first cursor is %+v, want its next block's %+v", lanes, lane, got, want)
			}
			if got := st.prefetch(hi-1, hi); got != (kernels.Prefetch{}) {
				t.Errorf("%d lanes: lane %d's last block asks for %+v, want nothing", lanes, lane, got)
			}
		}
	}
}

// The store fold's scope: a streaming stage folds its store into the last
// sweep where the kernels' sink takes that pass — a chain ending in radix 8
// or 16 (256 = [16 16], 24 = [3 8]; not 16 = [4 4] or 64 = [16 4]) — on
// blocks of whole lines inside the block budget, on one lane or two. NoFold,
// CopyLoads (no soft DMA at all) and real graphs keep every store leg.
func TestFoldStoreScope(t *testing.T) {
	checkLegRows(t, []legRow{
		{"rows of 256", legPast, Ablation{}, Pencils{Dims: []int{16, 256}}, []string{sunk, soft4}},
		{"cols of 256", legPast, Ablation{}, Pencils{Dims: []int{256, 16}}, []string{soft, sunk}},
		{"3D, z of 24", legPast, Ablation{}, Pencils{Dims: []int{24, 16, 64}}, []string{soft4, soft4, sunk}},
		{"256²", legPast, Ablation{}, Pencils{Dims: w256}, []string{sunk, sunk}},
		// Half-line blocks (μ = 2) keep the store leg.
		{"half-line blocks", legPast, Ablation{}, Pencils{Dims: w256, Mu: 2}, []string{soft, soft}},
		// The block budget: a unit past it keeps its store leg (4096²'s
		// 512 KiB cols against 256 KiB; folded, it read slower on one lane
		// and on two, EXPERIMENTS.md "Soft DMA on every lane").
		{"a unit past the budget", legPast, Ablation{}, Pencils{Dims: []int{16, 256}, BufferElems: 128}, []string{soft, soft4}},
		{"real 2D", legPast, Ablation{}, Pencils{Dims: []int{16, 256}, Real: realEnd(129)}, []string{"streaming", "radix-4 streaming"}},
		{"NoFold", legPast, Ablation{NoFold: true}, Pencils{Dims: w256}, []string{soft, soft}},
		{"CopyLoads", legPast, Ablation{CopyLoads: true}, Pencils{Dims: w256}, []string{"streaming", "streaming"}},
	})
}

package stagegraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cvec"
	"repro/internal/fft1d"
)

// streamingGraph builds the complex pencil graph of dims with every stage
// unfolded and streaming. The flag is set directly, so the run-major walk is
// taken on builds without the streaming tier too (through the Go twin).
func streamingGraph(t *testing.T, dims []int, policy StorePolicy) *Graph {
	t.Helper()
	n, plans := 1, make([]*fft1d.Plan, len(dims))
	for i, d := range dims {
		n *= d
		plans[i] = fft1d.NewPlan(d)
	}
	mid := []Array{{C: make([]complex128, n)}}
	if len(dims) == 3 {
		mid = []Array{{}, {C: make([]complex128, n)}}
	}
	restore := SetAblation(Ablation{NoFold: true, Stores: policy})
	g, err := Pencils{Pkg: "test", Dims: dims, Plans: plans, Mu: 4, BufferElems: 1 << 9, Mid: mid}.Build()
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if policy == StoreNonTemporal {
		for i := range g.stages {
			g.stages[i].NonTemporal = true
		}
		g.scaleInStore = true
	}
	return g
}

// The run-major store, driven one iteration at a time with the destination
// diffed in between: every call writes its block's indices as whole runs of
// Units·μ consecutive elements, each holding the right block of every unit,
// reports those bytes, and after the last call every destination element
// has been written exactly once.
func TestRunMajorStoreWritesEachElementOnceInRuns(t *testing.T) {
	sentinel := complex(math.Float64frombits(0x7ff8000000000bad), 0)
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) && imag(a) == imag(b)
	}
	for _, dims := range [][]int{{64, 128}, {8, 16, 32}} {
		g := streamingGraph(t, dims, StoreNonTemporal)
		for si := range g.stages {
			st := &g.stages[si]
			if !st.runMajor() {
				t.Fatalf("%v stage %d (%s) does not store run-major", dims, si, st.Name)
			}
			units, unitLen := st.storeGeometry()
			blocks, bl := st.Rot.Blocks, st.Rot.BlockLen
			if units < 2 {
				t.Fatalf("%v stage %d: %d unit(s) a block, the test wants several", dims, si, units)
			}
			dst := make([]complex128, st.Iters*units*unitLen)
			for i := range dst {
				dst[i] = sentinel
			}
			st.Dst = Endpoint{C: dst}
			b := &Buffers{C: make([]complex128, units*unitLen)}
			written := 0
			for iter := 0; iter < st.Iters; iter++ {
				for i := range b.C {
					b.C[i] = complex(float64(iter), float64(i))
				}
				before := append([]complex128(nil), dst...)
				bytes := st.store(b, iter, nil)
				changed := 0
				for i := range dst {
					if !same(dst[i], before[i]) {
						if !same(before[i], sentinel) {
							t.Fatalf("%v stage %d iter %d: element %d written twice", dims, si, iter, i)
						}
						changed++
					}
				}
				if want := blocks * units * bl; changed != want || bytes != want*complexBytes {
					t.Fatalf("%v stage %d iter %d: wrote %d elements, reported %d bytes, want %d elements",
						dims, si, iter, changed, bytes, want)
				}
				for j := 0; j < blocks; j++ {
					run := dst[st.Rot.Map(iter*units, j):][:units*bl]
					for u := 0; u < units; u++ {
						for i := 0; i < bl; i++ {
							if got, want := run[u*bl+i], b.C[u*unitLen+j*bl+i]; got != want {
								t.Fatalf("%v stage %d iter %d: run %d unit %d elem %d = %v, want %v",
									dims, si, iter, j, u, i, got, want)
							}
						}
					}
				}
				written += changed
			}
			if written != len(dst) {
				t.Fatalf("%v stage %d: %d of %d elements written", dims, si, written, len(dst))
			}
		}
	}
}

// A streaming graph is, bit for bit, the cached unit-major graph — forward,
// and inverse with the 1/N that the streaming graph applies on the way out
// of its last store and the cached one in its compute leg — on one lane and
// on three, and into a caller's array that starts mid-line
// (the streaming kernel declines it; the Go twin stores and scales). Each
// lane moves its own blocks, so the subtests name the lane count by the
// paper's count of data threads, p_d.
func TestRunMajorGraphMatchesUnitMajor(t *testing.T) {
	for _, dims := range [][]int{{64, 128}, {8, 16, 32}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		src := cvec.Random(rand.New(rand.NewSource(int64(n))), n)
		for _, lanes := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/pd%d", dims, lanes), func(t *testing.T) {
				run := func(policy StorePolicy, sign int, scale float64, off int) []complex128 {
					r, err := NewRunner(RunnerConfig{Pkg: "test", Lanes: lanes},
						streamingGraph(t, dims, policy))
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					if got, want := r.ScalesInStore(0), policy == StoreNonTemporal; got != want {
						t.Fatalf("ScalesInStore = %v under %v", got, policy)
					}
					dst := make([]complex128, n+off)[off:]
					for i := 0; i < 2; i++ { // twice: the patched scale must not stick
						if err := r.Run(0, Call{In: Endpoint{C: src}, Out: Endpoint{C: dst}, Sign: sign, Scale: scale}); err != nil {
							t.Fatal(err)
						}
					}
					return dst
				}
				for _, c := range []struct {
					sign  int
					scale float64
				}{{fft1d.Forward, 0}, {fft1d.Inverse, 1 / float64(n)}} {
					want := run(StoreRegular, c.sign, c.scale, 0)
					for _, off := range []int{0, 1} {
						if i := cvec.FirstBitDiff(run(StoreNonTemporal, c.sign, c.scale, off), want); i >= 0 {
							t.Fatalf("sign %d scale %v off %d: element %d differs from the unit-major graph", c.sign, c.scale, off, i)
						}
					}
				}
			})
		}
	}
}

// StoreScale is refused on a stage whose store would drop it — a plain
// cached store, or any store into a WriteC sink — and taken by run-major and
// radix-4 fold stores into a complex array.
func TestStoreScaleNeedsRunMajorStore(t *testing.T) {
	g := streamingGraph(t, []int{32, 64}, StoreRegular)
	st := g.stages[1]
	c := Endpoint{C: make([]complex128, 32*64)}
	st.Src, st.Dst = c, c
	st.StoreScale = 0.5
	if err := st.validate(1); err == nil {
		t.Fatal("validate accepted StoreScale on a cached stage")
	}
	st.NonTemporal = true
	if err := st.validate(1); err != nil {
		t.Fatalf("validate refused StoreScale on a run-major stage: %v", err)
	}
	st.Dst = Endpoint{WriteC: func(int, int, []complex128) {}}
	if err := st.validate(1); err == nil {
		t.Fatal("validate accepted StoreScale into a WriteC sink")
	}
	for _, nt := range []bool{false, true} {
		st.NonTemporal, st.StoreRadix, st.Dst = nt, 4, c
		if err := st.validate(1); err != nil {
			t.Fatalf("validate refused StoreScale on a fold stage (streaming %v): %v", nt, err)
		}
		st.Dst = Endpoint{WriteC: func(int, int, []complex128) {}}
		if err := st.validate(1); err == nil {
			t.Fatalf("validate accepted StoreScale on a fold stage into a WriteC sink (streaming %v)", nt)
		}
	}
}

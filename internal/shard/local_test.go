package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fft1d"
	"repro/internal/layout"
	"repro/internal/stagegraph"
)

// localCase runs one in-process transform of a random cube and holds it
// bitwise to the single-node plan, forward and unnormalised inverse. It
// returns the plan (closed by t.Cleanup) with the last direction's traffic.
func localCase(t *testing.T, k, n, m, sk int, opts WorkerOptions) *Local {
	t.Helper()
	p, err := NewLocal(k, n, m, sk, 0, opts)
	if err != nil {
		t.Fatalf("NewLocal(%dx%dx%d, sk=%d): %v", k, n, m, sk, err)
	}
	t.Cleanup(p.Close)
	src := randCube(k*n*m, int64(k*n*m+sk))
	for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
		got := make([]complex128, len(src))
		if err := p.Transform(got, src, sign); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s sk=%d sign=%d", Shape{k, n, m}, sk, sign)
		checkBitwise(t, got, singleNode(t, k, n, m, src, sign), label)
	}
	return p
}

func TestLocalMatchesSingleNode(t *testing.T) {
	for _, c := range []struct{ k, n, m, sk int }{
		{8, 8, 8, 1},
		{8, 8, 8, 2},
		{16, 8, 16, 2},
		{8, 16, 8, 4},
		{16, 16, 16, 2},
	} {
		localCase(t, c.k, c.n, c.m, c.sk, WorkerOptions{BufferElems: 128})
	}
	// No shape above streams by its footprint; forced streaming stores run
	// every slab's stages through the streaming, run-major and remapped
	// store paths, still bitwise the single-node plan.
	defer stagegraph.SetAblation(stagegraph.Ablation{Stores: stagegraph.StoreNonTemporal})()
	p := localCase(t, 16, 16, 16, 2, WorkerOptions{BufferElems: 512})
	if nt := p.plans[0].run.NonTemporalStages(); layout.NonTemporalAvailable() && nt != 3 {
		t.Errorf("%d streaming stages in slab 0, want 3", nt)
	}
}

// The unnormalised inverse lands bitwise on the single-node inverse.
func TestLocalInverse(t *testing.T) {
	localCase(t, 8, 8, 8, 2, WorkerOptions{BufferElems: 128})
}

// Each slab's plan runs one lane per GOMAXPROCS: at three, the lanes of
// both slabs write the exchange at once, still bitwise the single-node plan.
func TestLocalMultiWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	p := localCase(t, 16, 16, 16, 2, WorkerOptions{BufferElems: 512})
	if l := p.plans[0].run.Lanes(); l != 3 {
		t.Fatalf("slab plan runs %d lanes, want 3", l)
	}
}

// The shapes the loopback cluster is held to, at the shard count its
// coordinator picks for them: both transports agree with one node.
func TestLocalClusterShapes(t *testing.T) {
	for _, c := range []struct{ k, n, m, workers int }{
		{64, 64, 64, 3},
		{64, 64, 64, 4},
		{32, 64, 128, 4},
		{96, 48, 32, 3},
	} {
		coord, err := NewCoordinator(CoordinatorOptions{Nodes: make([]string, c.workers)})
		if err != nil {
			t.Fatal(err)
		}
		localCase(t, c.k, c.n, c.m, coord.ShardCount(c.k, c.n), WorkerOptions{})
	}
}

// Radix 16 is what the default chain means; the slabs take their sub-plans
// from the same place as the single-node plan, so they run its kernel calls.
func TestLocalRadix16(t *testing.T) {
	defer stagegraph.SetAblation(stagegraph.Ablation{Radix: 16})()
	localCase(t, 16, 16, 32, 2, WorkerOptions{})
}

// checkTraffic runs the k×n×m plan over slabs slabs and holds each listed
// stage's traffic to the byte: of the cube's k·n·m·16 bytes,
// (slabs−1)/slabs were written into another slab, and every stage writes
// each element exactly once.
func checkTraffic(t *testing.T, k, n, m, slabs, buf int, stages ...int) {
	t.Helper()
	p := localCase(t, k, n, m, slabs, WorkerOptions{BufferElems: buf})
	total := int64(k*n*m) * 16
	for _, st := range stages {
		cross := total * int64(slabs-1) / int64(slabs)
		if got, want := p.StageTraffic[st], (TrafficStat{LocalBytes: total - cross, CrossBytes: cross}); got != want {
			t.Errorf("%dx%dx%d stage %d: %+v, want %+v", k, n, m, st+1, got, want)
		}
	}
	for st, tr := range p.StageTraffic {
		if got := tr.LocalBytes + tr.CrossBytes; got != total {
			t.Errorf("stage %d wrote %d bytes, want %d", st+1, got, total)
		}
	}
}

// Fig. 8: "The first stage reads and writes the data locally, while the
// other two stages read data locally but write data across the sockets."
func TestLocalStage1TrafficIsLocal(t *testing.T) {
	p := localCase(t, 16, 8, 16, 2, WorkerOptions{BufferElems: 256})
	if tr := p.StageTraffic[0]; tr.CrossBytes != 0 || tr.LocalBytes != 16*8*16*16 {
		t.Errorf("stage 1 traffic %+v, all local wanted", tr)
	}
}

// With two slabs a stage-2 or stage-3 block lands in the other slab for
// exactly half the cube.
func TestLocalStage23CrossHalfForTwoSockets(t *testing.T) { checkTraffic(t, 16, 16, 16, 2, 512, 1, 2) }

func TestLocalFourSocketCrossFraction(t *testing.T) { checkTraffic(t, 8, 16, 8, 4, 128, 1, 2) }

// Table III: one slab is the single-socket plan, all traffic local.
func TestLocalSingleSocketAllLocal(t *testing.T) { checkTraffic(t, 8, 8, 8, 1, 128, 0, 1, 2) }

func TestLocalTotalWriteBytesPerStage(t *testing.T) { checkTraffic(t, 8, 8, 16, 2, 128) }

// On one lane and on two the slabs give the same bits and the same
// per-stage traffic: the byte counts follow the rotations, not the lanes,
// as they did not follow fusion when the schedule had it.
func TestLocalFusionEquivalence(t *testing.T) {
	const k, n, m, sk = 8, 8, 16, 2
	src := randCube(k*n*m, 99)
	var traffic [2][3]TrafficStat
	var outs [2][]complex128
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i := range outs {
		runtime.GOMAXPROCS(i + 1) // a slab's plan runs one lane per GOMAXPROCS
		p, err := NewLocal(k, n, m, sk, 0, WorkerOptions{BufferElems: 128})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = make([]complex128, len(src))
		err = p.Transform(outs[i], src, fft1d.Forward)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		traffic[i] = p.StageTraffic
	}
	checkBitwise(t, outs[1], outs[0], "two lanes vs one")
	checkBitwise(t, outs[0], singleNode(t, k, n, m, src, fft1d.Forward), "one lane vs single node")
	if traffic[0] != traffic[1] {
		t.Fatalf("per-stage traffic depends on the lanes: one %+v two %+v", traffic[0], traffic[1])
	}
}

func TestLocalValidation(t *testing.T) {
	for _, c := range []struct{ k, n, m, sk, mu int }{
		{0, 8, 8, 2, 0}, // bad size
		{8, 8, 8, 0, 0}, // bad slab count
		{9, 8, 8, 2, 0}, // sk ∤ k
		{8, 3, 4, 2, 0}, // sk ∤ n
		{8, 8, 6, 2, 4}, // μ ∤ m
	} {
		if p, err := NewLocal(c.k, c.n, c.m, c.sk, c.mu, WorkerOptions{}); err == nil {
			p.Close()
			t.Errorf("NewLocal(%d,%d,%d,sk=%d,μ=%d) accepted invalid input", c.k, c.n, c.m, c.sk, c.mu)
		}
	}
	p, err := NewLocal(8, 8, 8, 2, 0, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 8*8*8)
	if err := p.Transform(x, make([]complex128, 16*8*8), fft1d.Forward); err == nil {
		t.Fatal("accepted a mismatched source")
	}
	p.Close()
	p.Close()
	if err := p.Transform(x, x, fft1d.Forward); err == nil {
		t.Fatal("a closed plan ran")
	}
}

// Transforms from several goroutines serialize on the plan and each gets the
// single-node answer; a Close racing them waits for the one in flight.
func TestLocalConcurrentTransforms(t *testing.T) {
	const k, n, m, sk = 8, 16, 8, 2
	p, err := NewLocal(k, n, m, sk, 0, WorkerOptions{BufferElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := randCube(k*n*m, 7)
	want := singleNode(t, k, n, m, src, fft1d.Forward)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]complex128, len(src))
			if err := p.Transform(got, src, fft1d.Forward); err != nil {
				t.Error(err)
				return
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("concurrent transform differs at %d", j)
					return
				}
			}
		}()
	}
	wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Transform(make([]complex128, len(src)), src, fft1d.Forward) // may find the plan closed
	}()
	p.Close()
	wg.Wait()
}

// A Local dropped without Close is collected like a dropped core.Plan: its
// slab plans' runners are finalized, so the engine's live count falls back
// and the engine can release its idle lanes.
func TestDroppedLocalIsCollected(t *testing.T) {
	for range 3 {
		runtime.GC() // finalize what earlier tests dropped
	}
	before := stagegraph.LiveRunners()
	func() {
		l, err := NewLocal(8, 8, 16, 2, 0, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		src := randCube(8*8*16, 1)
		if err := l.Transform(make([]complex128, len(src)), src, fft1d.Forward); err != nil {
			t.Fatal(err)
		}
		if live := stagegraph.LiveRunners(); live != before+2 {
			t.Fatalf("%d runners live with a two-slab Local, %d before it", live, before)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stagegraph.LiveRunners() > before {
		if time.Now().After(deadline) {
			t.Fatalf("a dropped Local's runners were never finalized: %d live, %d before it", stagegraph.LiveRunners(), before)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

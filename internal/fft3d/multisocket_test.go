package fft3d

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cvec"
	"repro/internal/fft1d"
	"repro/internal/stagegraph"
)

func distCase(t *testing.T, k, n, m, sockets int, opts core.Config, sign int) *DistPlan {
	t.Helper()
	ref, _ := NewPlan(k, n, m, core.Config{Strategy: core.Reference})
	dp, err := NewDistPlan(k, n, m, sockets, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := cvec.Random(rand.New(rand.NewSource(int64(k*n*m+sockets))), k*n*m)
	want := make([]complex128, len(x))
	if err := ref.Transform(want, x, sign); err != nil {
		t.Fatal(err)
	}
	src, err := dp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	src.Scatter(x)
	if err := dp.Transform(dst, src, sign); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(x))
	dst.Gather(got)
	if d := cvec.MaxDiff(cvec.Vec(got), cvec.Vec(want)); d > tol*float64(k*n*m) {
		t.Fatalf("distributed %dx%dx%d sk=%d: diff %g", k, n, m, sockets, d)
	}
	return dp
}

func TestDistributedMatchesReference(t *testing.T) {
	for _, c := range []struct{ k, n, m, sk int }{
		{8, 8, 8, 1},
		{8, 8, 8, 2},
		{16, 8, 16, 2},
		{8, 16, 8, 4},
		{16, 16, 16, 2},
	} {
		distCase(t, c.k, c.n, c.m, c.sk, core.Config{
			DataWorkers: 1, ComputeWorkers: 1, BufferElems: 128,
		}, fft1d.Forward)
	}
}

// Radix 16 is what the default 0 means; the multi-socket constructor used to
// refuse it by name. Its sub-plans come from the same place as the
// single-socket plan's, so it runs the same kernel calls: bit-identical
// output.
func TestDistributedAcceptsRadix16(t *testing.T) {
	const k, n, m, sk = 16, 16, 32, 2
	defer stagegraph.SetAblation(stagegraph.Ablation{Radix: 16})()
	dp := distCase(t, k, n, m, sk, core.Config{}, fft1d.Forward)
	defer dp.Close()
	single, err := NewPlan(k, n, m, core.Config{Strategy: core.DoubleBuf})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	x := cvec.Random(rand.New(rand.NewSource(16)), k*n*m)
	want := make([]complex128, len(x))
	if err := single.Transform(want, x, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	src, _ := dp.Alloc()
	dst, _ := dp.Alloc()
	src.Scatter(x)
	if err := dp.Transform(dst, src, fft1d.Forward); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(x))
	dst.Gather(got)
	if i := cvec.FirstBitDiff(got, want); i >= 0 {
		t.Fatalf("sk=%d radix 16 differs from the single-socket plan at %d: %v vs %v", sk, i, got[i], want[i])
	}
}

func TestDistributedInverse(t *testing.T) {
	distCase(t, 8, 8, 8, 2, core.Config{BufferElems: 128}, fft1d.Inverse)
}

func TestDistributedMultiWorker(t *testing.T) {
	distCase(t, 16, 16, 16, 2, core.Config{
		DataWorkers: 2, ComputeWorkers: 2, BufferElems: 512,
	}, fft1d.Forward)
}

func TestStage1TrafficIsLocal(t *testing.T) {
	// Fig. 8: "The first stage reads and writes the data locally, while
	// the other two stages read data locally but write data across the
	// sockets."
	dp := distCase(t, 16, 8, 16, 2, core.Config{BufferElems: 256}, fft1d.Forward)
	s1 := dp.StageTraffic[0]
	if s1.CrossBytes != 0 {
		t.Fatalf("stage 1 crossed the link: %d bytes", s1.CrossBytes)
	}
	if s1.LocalBytes == 0 {
		t.Fatal("stage 1 recorded no local writes")
	}
}

func TestStage23CrossHalfForTwoSockets(t *testing.T) {
	// With sk sockets, a random (y,xb) or z destination lands remotely
	// with probability (sk-1)/sk, so half the stage-2/3 write bytes must
	// cross for sk=2.
	dp := distCase(t, 16, 16, 16, 2, core.Config{BufferElems: 512}, fft1d.Forward)
	for _, st := range []int{1, 2} {
		tr := dp.StageTraffic[st]
		total := tr.LocalBytes + tr.CrossBytes
		if total == 0 {
			t.Fatalf("stage %d recorded no writes", st+1)
		}
		frac := float64(tr.CrossBytes) / float64(total)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("stage %d cross fraction %.3f, want ≈ 0.5", st+1, frac)
		}
	}
}

func TestFourSocketCrossFraction(t *testing.T) {
	dp := distCase(t, 8, 16, 8, 4, core.Config{BufferElems: 128}, fft1d.Forward)
	tr := dp.StageTraffic[1]
	frac := float64(tr.CrossBytes) / float64(tr.LocalBytes+tr.CrossBytes)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("stage 2 cross fraction %.3f, want ≈ 0.75 for 4 sockets", frac)
	}
}

func TestSingleSocketDefaultsToLocal(t *testing.T) {
	// Table III: sk = 1 reduces to the single-socket implementation —
	// all traffic local.
	dp := distCase(t, 8, 8, 8, 1, core.Config{BufferElems: 128}, fft1d.Forward)
	for st, tr := range dp.StageTraffic {
		if tr.CrossBytes != 0 {
			t.Fatalf("stage %d crossed with one socket: %d bytes", st+1, tr.CrossBytes)
		}
	}
	if dp.System().CrossBytes() != 0 {
		t.Fatal("system recorded cross traffic with one socket")
	}
}

func TestTotalWriteBytesPerStage(t *testing.T) {
	// Every stage writes each element exactly once: knm·16 bytes.
	const k, n, m = 8, 8, 16
	dp := distCase(t, k, n, m, 2, core.Config{BufferElems: 128}, fft1d.Forward)
	want := int64(k * n * m * 16)
	for st, tr := range dp.StageTraffic {
		if got := tr.LocalBytes + tr.CrossBytes; got != want {
			t.Fatalf("stage %d wrote %d bytes, want %d", st+1, got, want)
		}
	}
}

func TestDistPlanValidation(t *testing.T) {
	cases := []struct{ k, n, m, sk int }{
		{0, 8, 8, 2}, // bad size
		{8, 8, 8, 0}, // bad sockets
		{9, 8, 8, 2}, // sk ∤ k
		{8, 3, 4, 2}, // sk ∤ n·m/μ (3·1=3 odd)
	}
	for _, c := range cases {
		if _, err := NewDistPlan(c.k, c.n, c.m, c.sk, core.Config{}); err == nil {
			t.Errorf("NewDistPlan(%d,%d,%d,%d) accepted invalid input", c.k, c.n, c.m, c.sk)
		}
	}
	// The defaulted μ always divides m (machine.PreferredMu), so μ ∤ m is
	// only reachable with an explicit override.
	if _, err := NewDistPlan(8, 8, 6, 2, core.Config{Mu: 4}); err == nil {
		t.Error("NewDistPlan accepted explicit μ=4 with m=6")
	}
	dp, err := NewDistPlan(8, 8, 8, 2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Sockets() != 2 {
		t.Fatal("Sockets wrong")
	}
	a, _ := dp.Alloc()
	other, _ := NewDistPlan(16, 8, 8, 2, core.Config{})
	bad, _ := other.Alloc()
	if err := dp.Transform(a, bad, fft1d.Forward); err == nil {
		t.Fatal("accepted mismatched distributed vectors")
	}
}

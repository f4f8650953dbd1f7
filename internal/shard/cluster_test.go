package shard

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fft1d"
)

func randCube(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// singleNode computes the single-node DoubleBuf reference result.
func singleNode(t *testing.T, k, n, m int, src []complex128, sign int) []complex128 {
	t.Helper()
	p, err := core.NewPlan(core.Config{}, false, k, n, m)
	if err != nil {
		t.Fatalf("NewPlan(%dx%dx%d): %v", k, n, m, err)
	}
	defer p.Close()
	dst := make([]complex128, len(src))
	if err := p.Transform(dst, src, sign); err != nil {
		t.Fatalf("single-node transform: %v", err)
	}
	return dst
}

func checkBitwise(t *testing.T, got, want []complex128, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: first mismatch at %d: got %v want %v (not bitwise identical)",
				label, i, got[i], want[i])
		}
	}
}

// TestClusterBitwiseEquivalence runs a sharded 3D transform on an
// in-process loopback cluster and requires the result to be bitwise
// identical to the single-node DoubleBuf plan, in both directions — the
// slab graphs issue the same per-pencil kernel calls with the same μ and
// radix chain, so not a single ulp may differ.
func TestClusterBitwiseEquivalence(t *testing.T) {
	cases := []struct {
		k, n, m, workers int
	}{
		{64, 64, 64, 3},
		{64, 64, 64, 4},
		{32, 64, 128, 4},
		{96, 48, 32, 3},
	}
	for _, tc := range cases {
		cl, err := StartCluster(tc.workers, WorkerOptions{}, CoordinatorOptions{})
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		src := randCube(tc.k*tc.n*tc.m, 42)
		for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
			got := make([]complex128, len(src))
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err := cl.Coord.Transform(ctx, got, src, tc.k, tc.n, tc.m, sign)
			cancel()
			if err != nil {
				t.Fatalf("%dx%dx%d w=%d sign=%d: %v", tc.k, tc.n, tc.m, tc.workers, sign, err)
			}
			want := singleNode(t, tc.k, tc.n, tc.m, src, sign)
			label := Shape{tc.k, tc.n, tc.m}.String()
			checkBitwise(t, got, want, label)
		}
		cl.Close()
	}
}

// TestClusterLarge covers the acceptance range's top end (256³) with 4
// workers, one direction each way on the same cluster so the warm plan
// cache is exercised too.
func TestClusterLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("256³ cluster round trip is slow")
	}
	const k, n, m, workers = 256, 256, 256, 4
	cl, err := StartCluster(workers, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	src := randCube(k*n*m, 7)
	got := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := cl.Coord.Transform(ctx, got, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("forward: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m, src, fft1d.Forward), "256³ forward")
	// Inverse of the spectrum round-trips to k·n·m times the input
	// (unnormalized), and must equal the single-node inverse bitwise.
	back := make([]complex128, len(src))
	if err := cl.Coord.Transform(ctx, back, got, k, n, m, fft1d.Inverse); err != nil {
		t.Fatalf("inverse: %v", err)
	}
	checkBitwise(t, back, singleNode(t, k, n, m, got, fft1d.Inverse), "256³ inverse")
}

// TestCloseIgnoresIdleConnections: a connection to a worker that never
// sends a request does not hold Close up.
func TestCloseIgnoresIdleConnections(t *testing.T) {
	cl, err := StartCluster(1, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(cl.URLs()[0], "http://"))
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	cl.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with an idle connection open, want ≤ 1s", d)
	}
}

// TestShardCountShrinks: a fleet larger than any valid split shrinks to
// the largest divisor, down to one worker for prime extents.
func TestShardCountShrinks(t *testing.T) {
	cl, err := StartCluster(3, WorkerOptions{}, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	if got := cl.Coord.ShardCount(64, 64); got != 2 {
		// 3 does not divide 64; the next candidate is 2.
		t.Fatalf("ShardCount(64,64) on 3 nodes = %d, want 2", got)
	}
	k, n, m := 64, 64, 32
	src := randCube(k*n*m, 3)
	got := make([]complex128, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Coord.Transform(ctx, got, src, k, n, m, fft1d.Forward); err != nil {
		t.Fatalf("transform: %v", err)
	}
	checkBitwise(t, got, singleNode(t, k, n, m, src, fft1d.Forward), "shrunk fleet")
}

func TestFleetOrderStable(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	s := Shape{64, 64, 64}
	first := FleetOrder(s, nodes)
	for i := 0; i < 10; i++ {
		if got := FleetOrder(s, nodes); len(got) != len(first) {
			t.Fatal("length changed")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("ordering not stable: %v vs %v", got, first)
				}
			}
		}
	}
	// Distinct shapes should not all collapse onto one ordering.
	diff := false
	for kk := 16; kk <= 512 && !diff; kk *= 2 {
		other := FleetOrder(Shape{kk, 32, 32}, nodes)
		for j := range other {
			if other[j] != first[j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("rendezvous ranking identical for every shape — routing would never spread")
	}
}

func TestExchangeRouteRoundTrip(t *testing.T) {
	g, err := newGeom(32, 16, 64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.sk; s++ {
		seen := make(map[int]bool)
		// Every (q, z) block this shard's stage 2 emits must route to the
		// owner of pillar q and expand back to the right C-part offset.
		for q := 0; q < g.n*g.mb; q++ {
			for zl := 0; zl < g.ksl; zl++ {
				z := s*g.ksl + zl
				off := (q*g.k + z) * g.mu
				v, compact := g.exchangeRoute(s, off)
				if want := q / g.q; v != want {
					t.Fatalf("owner of q=%d: got %d want %d", q, v, want)
				}
				if compact < 0 || compact+g.mu > g.peerShareElems() {
					t.Fatalf("compact offset %d out of range", compact)
				}
				local := g.expandOffset(s, compact)
				if wantLocal := ((q-v*g.q)*g.k + z) * g.mu; v == s && local != wantLocal {
					t.Fatalf("self expand: got %d want %d", local, wantLocal)
				}
				if v == s {
					if seen[compact] {
						t.Fatalf("compact offset %d hit twice", compact)
					}
					seen[compact] = true
				}
			}
		}
	}
}

package fft1d_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/fft1d"
	"repro/internal/kernels"
)

// The 1D digest table pins the raw output bits of fft1d plans, one digest
// per (n, μ, batch, direction) and kernel tier: n in 1…130, 2⁴…2¹⁷ and the
// primes 127, 509, 4093 and 65537, at μ ∈ {1, 4}, one pencil out of place
// (Lanes) and three pencils in place (BatchLanesArena). `-update` merges the
// running tier's column into testdata/digests.txt; run it once per tier
// (plain and -tags purego). The table was written by the planner that
// preceded the one-chain planner; rows of composite sizes above 8 keep its
// digests for the record but are checked against accuracy.Bound.

var updateDigests = flag.Bool("update", false, "merge this tier's column into testdata/digests.txt")

const digestPath = "testdata/digests.txt"

type digestKey struct{ n, mu, batch, sign int }

func (k digestKey) String() string {
	return fmt.Sprintf("%d %d %d %+d", k.n, k.mu, k.batch, k.sign)
}

func digestKeys() []digestKey {
	var ns []int
	for n := 1; n <= 130; n++ {
		ns = append(ns, n)
	}
	for k := 8; k <= 17; k++ {
		ns = append(ns, 1<<k)
	}
	ns = append(ns, 509, 4093, 65537)
	var keys []digestKey
	for _, n := range ns {
		for _, mu := range []int{1, 4} {
			for _, batch := range []int{1, 3} {
				for _, sign := range []int{fft1d.Forward, fft1d.Inverse} {
					keys = append(keys, digestKey{n, mu, batch, sign})
				}
			}
		}
	}
	return keys
}

// digestInput is the seeded operand: splitmix64 mapped to [-1, 1).
func digestInput(n int, seed uint64) []complex128 {
	x := make([]complex128, n)
	s := seed
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)/(1<<52) - 1
	}
	for i := range x {
		re := next()
		x[i] = complex(re, next())
	}
	return x
}

// runDigestCase returns the case's input and output.
func runDigestCase(k digestKey) (in, out []complex128) {
	p := fft1d.NewPlan(k.n)
	in = digestInput(k.n*k.mu*k.batch, uint64(k.n*1000+k.mu*10+k.batch))
	out = make([]complex128, len(in))
	if k.batch == 1 {
		p.Lanes(out, in, k.mu, k.sign)
		return in, out
	}
	copy(out, in)
	p.BatchLanesArena(out, out, k.batch, k.mu, k.sign, kernels.NewArena(0, 0))
	return in, out
}

func digestOf(x []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// readDigests parses the table: a header line naming the tiers, then one
// line per case, "n mu batch sign" followed by one digest per tier.
func readDigests(t *testing.T) (tiers []string, rows map[string][]string) {
	rows = map[string][]string{}
	f, err := os.Open(digestPath)
	if os.IsNotExist(err) {
		return nil, rows
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && fields[0] == "#" {
			tiers = fields[5:]
			continue
		}
		if len(fields) != 4+len(tiers) {
			t.Fatalf("%s: malformed line %q", digestPath, sc.Text())
		}
		rows[strings.Join(fields[:4], " ")] = fields[4:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tiers, rows
}

func writeDigests(t *testing.T, tiers []string, rows map[string][]string, keys []digestKey) {
	var b strings.Builder
	fmt.Fprintf(&b, "# n mu batch sign %s\n", strings.Join(tiers, " "))
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, strings.Join(rows[k.String()], " "))
	}
	if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDigests(t *testing.T) {
	keys := digestKeys()
	tiers, rows := readDigests(t)
	tier := kernels.Tier()
	col := sort.SearchStrings(tiers, tier)
	if *updateDigests {
		if col == len(tiers) || tiers[col] != tier {
			tiers = append(tiers[:col:col], append([]string{tier}, tiers[col:]...)...)
			for key, r := range rows {
				rows[key] = append(r[:col:col], append([]string{"-"}, r[col:]...)...)
			}
		}
		for _, k := range keys {
			_, out := runDigestCase(k)
			r := rows[k.String()]
			if r == nil {
				r = make([]string, len(tiers))
				for i := range r {
					r[i] = "-"
				}
			}
			r[col] = digestOf(out)
			rows[k.String()] = r
		}
		writeDigests(t, tiers, rows, keys)
		return
	}
	if col == len(tiers) || tiers[col] != tier {
		t.Skipf("%s has no %s column", digestPath, tier)
	}
	for _, k := range keys {
		r := rows[k.String()]
		if r == nil {
			t.Fatalf("%s has no row %q", digestPath, k)
		}
		in, out := runDigestCase(k)
		if !pinned(k.n) {
			if e := maxLaneError(in, out, k); e > accuracy.Bound(k.n) {
				t.Errorf("n=%d μ=%d batch=%d sign=%+d (%s): relative error %.3g over the bound %.3g",
					k.n, k.mu, k.batch, k.sign, fft1d.NewPlan(k.n).Kind(), e, accuracy.Bound(k.n))
			}
			continue
		}
		if got := digestOf(out); got != r[col] {
			t.Errorf("n=%d μ=%d batch=%d sign=%+d: digest %s, want %s (%s)",
				k.n, k.mu, k.batch, k.sign, got, r[col], fft1d.NewPlan(k.n).Kind())
		}
	}
}

// pinned reports whether n's bits are held to the table: n ≤ 8, powers of
// two and primes, whose chains are the pre-chain planner's codelet, Stockham
// and Bluestein plans stage for stage. Other composite sizes changed
// factorization when every size became one Stockham chain; they are held to
// accuracy.Bound instead.
func pinned(n int) bool {
	if n <= 8 || n&(n-1) == 0 {
		return true
	}
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}

// maxLaneError is the worst L2 relative error, over every lane of every
// pencil of a case, against the compensated direct DFT (accuracy.Bin).
func maxLaneError(in, out []complex128, k digestKey) float64 {
	worst := 0.0
	x, y := make([]complex128, k.n), make([]complex128, k.n)
	for c := 0; c < k.batch; c++ {
		for l := 0; l < k.mu; l++ {
			for i := range x {
				x[i] = in[(c*k.n+i)*k.mu+l]
				y[i] = out[(c*k.n+i)*k.mu+l]
			}
			var num, den float64
			for i := range x {
				want := accuracy.Bin(x, i, k.sign)
				d := y[i] - want
				num += real(d)*real(d) + imag(d)*imag(d)
				den += real(want)*real(want) + imag(want)*imag(want)
			}
			worst = math.Max(worst, math.Sqrt(num/den))
		}
	}
	return worst
}

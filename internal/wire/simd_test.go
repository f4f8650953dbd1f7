package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// setForceGeneric pins (or unpins) the generic tier of the number codec,
// as kernels.SetForceGeneric does the codelets'. It is not safe to call
// while a codec runs.
func setForceGeneric(on bool) { useSIMD = hostSIMD && !on }

// codecTier names the tier the codec takes: "avx2" or "generic".
func codecTier() string {
	if useSIMD {
		return "avx2"
	}
	return "generic"
}

// The run scanner on its own: how many tokens of a window it takes, the
// values they decode to and where it stops.
func TestScanRun(t *testing.T) {
	if !hostSIMD {
		t.Skip("no AVX2 tier on this host")
	}
	for _, c := range []struct {
		tail string
		took int
	}{
		{"1.5,-0.25,0,-0,7,", 5},
		{"0.12345678901234567,-148.04599043215437,1234567890123456789,0.0123456789012345678,", 4},
		{"1,12345678901234567890,", 1},  // 20 digits
		{"1,1.2345678901234567890,", 1}, // 20 digits with a point
		{"1,1e5,", 1},                   // an exponent
		{"1 ,2,", 0},                    // whitespace after the token
		{"1, 2,", 1},                    // before it
		{"1,01,", 1},                    // a leading zero
		{"1,1.,", 1},                    // no digits after the point
		{"1,-,", 1},                     // no digits
		{"1,9007199254740993,", 1},      // Eisel–Lemire cannot decide it
		{"1,2]", 1},                     // the array's end
		{"0.000001,-0.0,2,", 3},
		{strings.Repeat("3,", 10), 8},             // dst holds 8
		{"5," + strings.Repeat("1", 48) + ",", 1}, // 48 bytes
	} {
		body := []byte(strings.Repeat(" ", runBehind) + c.tail + strings.Repeat(" ", runAhead))
		d := &jsonDecoder{buf: body, pos: runBehind, end: len(body)}
		dst := make([]float64, 8)
		if k := d.run(dst); k != c.took {
			t.Errorf("%q: took %d tokens, want %d", c.tail, k, c.took)
			continue
		}
		toks := strings.Split(c.tail, ",")[:c.took]
		if want := runBehind + len(strings.Join(toks, ",")) + min(c.took, 1); d.pos != want {
			t.Errorf("%q: stopped at %d, want %d", c.tail, d.pos, want)
		}
		for i, tok := range toks {
			want, _ := strconv.ParseFloat(tok, 64)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Errorf("%q: token %d decoded to %v, want %v", c.tail, i, dst[i], want)
			}
		}
	}
	// The window: a token starts a run only with 64 bytes left.
	for left := runAhead - 2; left <= runAhead+1; left++ {
		body := []byte(strings.Repeat(" ", runBehind) + "1," + strings.Repeat("2,", 40))
		d := &jsonDecoder{buf: body, pos: runBehind, end: runBehind + 2 + left}
		n := d.run(make([]float64, 64))
		if want := 1 + (left-runAhead)/2 + 1; left < runAhead && n != 1 || left >= runAhead && n != want {
			t.Errorf("%d bytes after the first token: took %d", left, n)
		}
	}
}

// Both tiers decode and encode the same bytes to the same values and the
// values to the same bytes.
func TestCodecTiersAgree(t *testing.T) {
	body, _ := request256(t)
	for _, b := range [][]byte{body, bytes.ReplaceAll(body, []byte(","), []byte(", "))} {
		got, err := DecodeJSON(bytes.NewReader(b), int64(len(b)))
		setForceGeneric(true)
		want, wantErr := DecodeJSON(bytes.NewReader(b), int64(len(b)))
		setForceGeneric(false)
		if err != nil || wantErr != nil || !sameBits(Floats(got.Src), Floats(want.Src)) {
			t.Fatalf("%s tier: %v; generic: %v; or the values differ", codecTier(), err, wantErr)
		}
	}

	// Every layout the batch formatter has, dp = −5 … 17 with 1 … 17
	// digits, both signs, and the exponent forms either side of them.
	rng := rand.New(rand.NewSource(56))
	var vals []float64
	for nd := 1; nd <= 17; nd++ {
		for dp := -7; dp <= 22; dp++ {
			for range 4 {
				m := rng.Int63n(9*int64(uint64Pow10[nd-1])) + int64(uint64Pow10[nd-1])
				v, err := strconv.ParseFloat(strconv.FormatInt(m, 10)+"e"+strconv.Itoa(dp-nd), 64)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v, -v)
			}
		}
	}
	for range 20000 {
		vals = append(vals, rng.NormFloat64(), rng.NormFloat64()*148, math.Ldexp(rng.Float64(), rng.Intn(140)-70))
	}
	for len(vals) > 0 {
		k := min(len(vals), encodeBatch)
		checkBatch(t, vals[:k])
		vals = vals[k:]
	}
}

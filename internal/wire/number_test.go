package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The two number kernels are held to the strconv pair they replaced.

// refAppendFloat is encoding/json's float formatting: strconv's shortest
// digits, exponent form below 1e-6 and from 1e21, e-09 trimmed to e-9.
func refAppendFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

var numberGrammar = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// refParseNumber decides a token by the grammar, the length bound and
// strconv.ParseFloat, one after the other.
func refParseNumber(tok string) (float64, error) {
	if !numberGrammar.MatchString(tok) {
		return 0, errors.New("not a JSON number")
	}
	if len(tok) > MaxNumberLen {
		return 0, errors.New("too long")
	}
	return strconv.ParseFloat(tok, 64)
}

// parseNumber decides a token the decoder's way; fast reports that strconv
// was not asked.
func parseNumber(tok string) (f float64, fast bool, err error) {
	var t numberToken
	err = scanNumber([]byte(tok+","), &t)
	if err == nil && t.n != len(tok) {
		err = fmt.Errorf("token ends at byte %d", t.n)
	}
	if err != nil {
		return 0, false, err
	}
	f, err = t.value(tok)
	return f, t.fast, err
}

// checkNumber holds one token to the reference and returns whether the fast
// path decided it.
func checkNumber(t testing.TB, tok string) bool {
	t.Helper()
	got, fast, err := parseNumber(tok)
	want, wantErr := refParseNumber(tok)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: got error %v, reference %v", tok, err, wantErr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %v (%#x), strconv.ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return fast
}

// checkFloat holds v's formatting to the reference and parses it back to v;
// with spellings it also holds v's 17-, 19- and 20-digit spellings to the
// reference parser. It returns whether the fast path decided the shortest
// spelling.
func checkFloat(t testing.TB, v float64, buf []byte, spellings bool) bool {
	t.Helper()
	got := appendJSONFloat(buf[:0], v)
	if want := refAppendFloat(nil, v); string(got) != string(want) {
		t.Fatalf("%#x: formatted %s, strconv %s", math.Float64bits(v), got, want)
	}
	tok := string(got)
	back, fast, err := parseNumber(tok)
	if err != nil || math.Float64bits(back) != math.Float64bits(v) {
		t.Fatalf("%s parsed to %v (%#x), %v; want %#x", tok, back, math.Float64bits(back), err, math.Float64bits(v))
	}
	if spellings {
		for _, prec := range []int{16, 18, 19} {
			checkNumber(t, string(strconv.AppendFloat(buf[:0], v, 'e', prec, 64)))
		}
	}
	return fast
}

func TestNumberKernelsAgainstStrconv(t *testing.T) {
	buf := make([]byte, 0, 64)
	both := func(v float64) {
		checkFloat(t, v, buf, true)
		checkFloat(t, -v, buf, true)
	}
	// Every power of two, subnormal ones included, and its neighbours: each
	// binary exponent at its narrow lower boundary and on either side.
	for e := -1074; e <= 1023; e++ {
		v := math.Ldexp(1, e)
		both(v)
		both(math.Nextafter(v, 0))
		if up := math.Nextafter(v, math.Inf(1)); !math.IsInf(up, 0) {
			both(up)
		}
	}
	// Every power of ten in range and its neighbours, and the spelling 1e<k>
	// itself up to where it overflows and down to where it rounds to zero.
	for k := -330; k <= 310; k++ {
		tok := "1e" + strconv.Itoa(k)
		checkNumber(t, tok)
		checkNumber(t, "-"+tok)
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || v == 0 {
			continue
		}
		both(v)
		both(math.Nextafter(v, 0))
		both(math.Nextafter(v, math.MaxFloat64))
	}
	for _, v := range edgeValues {
		both(v)
	}
	// Integers a float64 holds exactly: digits with no point in 'f' form.
	for v := 1.0; v <= 1<<53; v = v*3 + 1 {
		both(v)
	}
	both(1 << 53)

	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(24))
	fast := 0
	for i := 0; i < n; i++ {
		v := math.Float64frombits(rng.Uint64())
		if CheckFinite([]float64{v}) != nil {
			i--
			continue
		}
		if checkFloat(t, v, buf, i%16 == 0) {
			fast++
		}
	}
	// Of uniformly random exponents 2 in 617 spell a 20- or 21-digit
	// integer and 1 in 2048 is subnormal; the rest of what the fast path
	// hands back is Eisel–Lemire undecided, mostly about exact binary
	// fractions with more than 53 bits of decimal mantissa.
	share := float64(fast) / float64(n)
	t.Logf("the fast path decided %.4f of %d shortest spellings", share, n)
	if share < 0.99 {
		t.Errorf("the fast path decided %.4f of the shortest spellings, want ≥ 0.99", share)
	}
}

// Spellings on the fast path's boundaries: each must decode as
// strconv.ParseFloat decides, and the ones strconv must be asked about are.
func TestParseNumberBoundaries(t *testing.T) {
	zeros := strings.Repeat("0", 25)
	cases := []struct {
		tok  string
		fast bool
	}{
		{"0", true}, {"-0", true}, {"0.0", true}, {"-0.0e5", true}, {"0e999", false}, {"-0e-999", false},
		{"1", true}, {"1E+05", true}, {"1e-05", true}, {"1e22", true}, {"1e23", false}, {"1e24", true},
		{"9007199254740992", true}, {"9007199254740993", false}, {"9007199254740993.0", false}, // halfway: round to even
		{"9007199254740995", true},
		{"1234567890123456789", true}, {"12345678901234567890", false}, {"1.2345678901234567890", false}, // 19, 20 digits
		{"0." + zeros + "123", true}, {"0." + zeros + "1234567890123456789", true}, {"0." + zeros + "12345678901234567890", false},
		{"123456789012.345678901234", false},
		{"1.7976931348623157e308", true}, {"1.7976931348623159e308", false}, {"1e309", false}, {"1e400", false},
		{"2.2250738585072014e-308", true}, {"2.2250738585072011e-308", false}, {"5e-324", false}, {"1e-400", false},
		{"2225073858507201400e-326", true}, {"2225073858507200000e-326", false}, {"22250738585072014000e-327", false}, {"1e-326", false}, {"1e-327", false},
		{"1e+00000000000000000000000000000000000000000005", true},
		{"1e-00000000000000000000000000000000000000000005", true},
		{"1e99999999999999999999999999999999999999999999", false},
		{"0.5e99999999999999999999999999999999999999999999"[:MaxNumberLen], false},
		{strings.Repeat("9", MaxNumberLen), false}, {strings.Repeat("9", MaxNumberLen+1), false},
		{"0." + strings.Repeat("3", MaxNumberLen-2), false}, {"0." + strings.Repeat("3", MaxNumberLen-1), false},
		{"01", false}, {"-", false}, {"+1", false}, {"1.", false}, {".5", false}, {"1e", false}, {"1e+", false}, {"0x10", false}, {"1_0", false},
	}
	for _, c := range cases {
		if fast := checkNumber(t, c.tok); fast != c.fast {
			t.Errorf("%s: decided by the fast path = %v, want %v", c.tok, fast, c.fast)
		}
	}
}

// The SWAR digit count and conversion against the byte loop, with every
// byte value in every lane.
func TestLeadingDigits(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			for _, rest := range []string{"12345678", "99999999", "\xff\xfa:/\x00 e,"} {
				s := []byte("12345678")
				copy(s[lane:], rest)
				s[lane] = byte(c)
				want := uint(0)
				for want < 8 && s[want]-'0' <= 9 {
					want++
				}
				w := binary.LittleEndian.Uint64(s)
				if got := leadingDigits(w); got != want {
					t.Fatalf("leadingDigits(%q) = %d, want %d", s, got, want)
				}
				if want == 8 {
					n, _ := strconv.ParseUint(string(s), 10, 64)
					if got := eightDigitsValue(w); got != n {
						t.Fatalf("eightDigitsValue(%q) = %d", s, got)
					}
				}
			}
		}
	}
	for _, s := range []string{"00000000", "99999999", "00000001", "10000000", "09090909"} {
		want, _ := strconv.ParseUint(s, 10, 64)
		if w := binary.LittleEndian.Uint64([]byte(s)); leadingDigits(w) != 8 || eightDigitsValue(w) != want {
			t.Fatalf("%s: %d leading digits, value %d", s, leadingDigits(w), eightDigitsValue(w))
		}
	}
}

// The SWAR digit spelling against fmt, over a stride of the eight-digit
// range, its edges and every value below 10^4 (one lane's range).
func TestEightDigits(t *testing.T) {
	check := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], eightDigits(v))
		if want := fmt.Sprintf("%08d", v); string(b[:]) != want {
			t.Fatalf("eightDigits(%d) = %q, want %q", v, b[:], want)
		}
	}
	for v := uint64(0); v < 1e4; v++ {
		check(v)
		check(v * 1e4)
		check(99999999 - v)
	}
	for v := uint64(0); v < 1e8; v += 997 {
		check(v)
	}
}

// appendJSONFloat appends in place when the slice has room and grows it
// when it has not, leaving what was there.
func TestAppendJSONFloatGrows(t *testing.T) {
	for _, c := range []int{0, 3, 4, 64} {
		b := append(make([]byte, 0, c), "x,"...)
		if got := string(appendJSONFloat(b, -1.5e-7)); got != "x,-1.5e-7" {
			t.Errorf("capacity %d: got %q", c, got)
		}
	}
}

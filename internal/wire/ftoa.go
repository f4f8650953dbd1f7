package wire

import (
	"math"
	"math/bits"
	"slices"
)

// maxFloatLen is the longest appendJSONFloat output: a sign, "0.", five
// zeros and 17 digits just above 1e-6.
const maxFloatLen = 25

// appendJSONFloat formats a finite v the way encoding/json does (ES6
// number to string): shortest round-trip digits, exponent form below 1e-6
// and from 1e21, and a negative exponent without a leading zero (e-9, not
// e-09).
func appendJSONFloat(b []byte, v float64) []byte {
	n := len(b)
	b = slices.Grow(b, maxFloatLen)[:n+maxFloatLen]
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b[n] = '-'
		n++
		u &^= 1 << 63
	}
	if u == 0 {
		b[n] = '0'
		return b[:n+1]
	}
	m, k := shortestDecimal(u)
	for m%10 == 0 {
		m /= 10
		k++
	}
	nd := decimalLen(m)
	dp := nd + k // digits before the decimal point

	if dp < -5 || dp > 21 {
		// Below 1e-6 or from 1e21: d[.ddd]e±x
		writeDigits(b[n+1:], m, nd)
		b[n] = b[n+1]
		n++
		if nd > 1 {
			b[n] = '.'
			n += nd
		}
		b[n] = 'e'
		x := dp - 1
		if x < 0 {
			b[n+1] = '-'
			x = -x
		} else {
			b[n+1] = '+'
		}
		xd := decimalLen(uint64(x))
		writeDigits(b[n+2:], uint64(x), xd)
		return b[:n+2+xd]
	}
	switch {
	case dp <= 0: // 0.00ddd
		copy(b[n:], "0.00000")
		n += 2 - dp
		writeDigits(b[n:], m, nd)
		return b[:n+nd]
	case dp >= nd: // ddd000
		writeDigits(b[n:], m, nd)
		copy(b[n+nd:], "00000000000000000000"[:dp-nd])
		return b[:n+dp]
	}
	// dd.ddd
	writeDigits(b[n+1:], m, nd)
	copy(b[n:], b[n+1:n+1+dp])
	b[n+dp] = '.'
	return b[:n+1+nd]
}

// digitPairs is "00" "01" … "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// writeDigits writes the nd decimal digits of m to b[:nd], two at a time
// from the right.
func writeDigits(b []byte, m uint64, nd int) {
	b = b[:nd]
	for nd >= 2 {
		q := m / 100
		r := 2 * (m - 100*q)
		nd -= 2
		b[nd], b[nd+1] = digitPairs[r], digitPairs[r+1]
		m = q
	}
	if nd == 1 {
		b[0] = byte('0' + m)
	}
}

// decimalLen is the number of decimal digits of m ≥ 1.
func decimalLen(m uint64) int {
	n := bits.Len64(m) * 1233 >> 12 // ⌊log₁₀ 2^len⌋, at most one short
	if m >= uint64Pow10[n] {
		n++
	}
	return n
}

var uint64Pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// shortestDecimal returns the decimal m × 10^k with the fewest digits,
// up to trailing zeros of m, that parses back to the positive float64
// whose bits are u, and among those the one nearest to it (ties to even):
// the digits strconv.FormatFloat(·, 'e', -1, 64) prints.
//
// It is Schubfach (Raffaello Giulietti, "The Schubfach way to render
// doubles", 2020) in the form of Alexander Bolz's Drachennest: the float's
// rounding interval [cbl, cbr]/4 × 2^q is scaled by one table entry
// 10^−k into [vbl, vbr]/4, where the candidates are the integers s and
// s+1 around vb/4 and, one digit shorter, their neighbours that are
// multiples of ten.
func shortestDecimal(u uint64) (m uint64, k int) {
	const (
		mantBits = 52
		bias     = 1023 + mantBits
	)
	frac := u & (1<<mantBits - 1)
	exp := int(u >> mantBits)
	c, q := frac, 1-bias // subnormal
	if exp != 0 {
		c, q = frac|1<<mantBits, exp-bias
	}

	// The interval is closed when c is even (the bounds round to u under
	// ties-to-even) and a quarter shorter below a power of two.
	var open, narrow uint64
	if c&1 != 0 {
		open = 1
	}
	k = q * 1262611 >> 22 // ⌊log₁₀ 2^q⌋
	if frac == 0 && exp > 1 {
		narrow = 1
		k = (q*1262611 - 524031) >> 22 // ⌊log₁₀ ¾·2^q⌋
	}
	h := uint(q + -k*1741647>>19 + 1) // q + ⌊log₂ 10^−k⌋ + 1, in [1, 4]

	pow := pow10Tab[-k-pow10Min]
	if k > 0 || -k > pow10ExactMax {
		pow.lo++ // ⌈10^−k⌉
	}
	lower := roundToOdd(pow, (4*c-2+narrow)<<h) + open
	vb := roundToOdd(pow, 4*c<<h)
	upper := roundToOdd(pow, (4*c+2)<<h) - open

	s := vb / 4
	if s >= 10 {
		sp := s / 10
		below, above := lower <= 40*sp, 40*sp+40 <= upper
		if below != above {
			if above {
				sp++
			}
			return sp, k + 1
		}
	}
	below, above := lower <= 4*s, 4*s+4 <= upper
	if below != above {
		if above {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·cp / 2^128⌋ with the lowest bit set when the
// discarded part is not zero (cp < 2^63, so the sum below cannot carry
// out).
func roundToOdd(g uint128, cp uint64) uint64 {
	x1, _ := bits.Mul64(g.lo, cp)
	y1, y0 := bits.Mul64(g.hi, cp)
	y0, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}

package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// maxFloatLen is the room appendJSONFloat writes in: its longest output, a
// sign, "0.", five zeros and 17 digits just above 1e-6 (25 bytes), and
// what its eight-byte word stores write past an exponent's last digit.
const maxFloatLen = 32

// appendJSONFloat formats a finite v the way encoding/json does (ES6
// number to string): shortest round-trip digits, exponent form below 1e-6
// and from 1e21, and a negative exponent without a leading zero (e-9, not
// e-09).
func appendJSONFloat(b []byte, v float64) []byte {
	n := len(b)
	if cap(b)-n < maxFloatLen {
		b = slices.Grow(b, maxFloatLen)
	}
	b = b[:n+maxFloatLen]
	u := math.Float64bits(v)
	b[n] = '-' // kept by a negative v, overwritten otherwise
	n += int(u >> 63)
	u &^= 1 << 63
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
		binary.LittleEndian.PutUint64(b[n:], 0x303030303030_2E30) // "0.000000"
		n += 2 - dp
		writeDigits(b[n:], m, nd)
		return b[:n+nd]
	case dp >= nd: // ddd000
		writeDigits(b[n:], m, nd)
		copy(b[n+nd:], "00000000000000000000"[:dp-nd])
		return b[:n+dp]
	}
	// dd.ddd: the digits one byte right, then the first dp moved left over
	// the gap, from the register that holds them, and the point after them.
	first := writeDigits(b[n+1:], m, nd)
	if dp < 8 {
		head := uint64(1)<<(8*dp) - 1
		binary.LittleEndian.PutUint64(b[n:], first&head|'.'<<(8*dp)|first<<8&^(head<<8|0xFF))
	} else {
		for i := n; i < n+dp; i++ {
			b[i] = b[i+1]
		}
		b[n+dp] = '.'
	}
	return b[:n+1+nd]
}

// writeDigits writes the nd decimal digits of m < 10^nd, leading zeros
// included, to b[:nd] in eight-digit words, the most significant first;
// below eight digits it writes zeros up to b[8]. It returns the word it
// wrote to b[:8].
func writeDigits(b []byte, m uint64, nd int) uint64 {
	if nd <= 8 {
		w := eightDigits(m) >> (64 - 8*nd)
		binary.LittleEndian.PutUint64(b, w)
		return w
	}
	hi := m / 1e8
	next := eightDigits(m - hi*1e8)
	binary.LittleEndian.PutUint64(b[nd-8:], next)
	if nd > 16 {
		top := hi / 1e8
		next = eightDigits(hi - top*1e8)
		binary.LittleEndian.PutUint64(b[nd-16:], next)
		hi = top
	}
	k := (nd-1)&7 + 1 // digits in the top word
	w := eightDigits(hi)>>(64-8*k) | next<<(8*k)
	binary.LittleEndian.PutUint64(b, w)
	return w
}

// eightDigits spells v < 10^8 as eight ASCII digits, leading zeros
// included, the first in the lowest byte: v splits into two four-digit
// halves, one per 32-bit lane, each lane into two-digit quarters and
// those into digits, with reciprocal multiplies exact at each width
// (x·10486 >> 20 = x/100 below 10^4, x·103 >> 10 = x/10 below 100).
func eightDigits(v uint64) uint64 {
	q := uint64(uint32(v) / 1e4)
	x := q | (v-q*1e4)<<32
	y := x * 10486 >> 20 & 0x0000007F0000007F
	x = y | (x-y*100)<<16
	y = x * 103 >> 10 & 0x000F000F000F000F
	x = y | (x-y*10)<<8
	return x | 0x3030303030303030
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

	// Of the candidates, one digit shorter first, the one inside the
	// interval when exactly one is; otherwise the nearest. The choices are
	// flags, not branches: which way they go is close to a coin flip for
	// the 16- and 17-digit decimals of typical data.
	s := vb / 4
	sp := s / 10
	shortLo, shortHi := flag(lower <= 40*sp), flag(40*sp+40 <= upper)
	short := (shortLo ^ shortHi) & flag(s >= 10)
	in, above := flag(lower <= 4*s), flag(4*s+4 <= upper)
	mid := 4*s + 2
	nearest := flag(vb > mid) | flag(vb == mid)&s
	one := in ^ above
	m = s + (one&above | (one^1)&nearest)
	if short != 0 {
		m = sp + shortHi
	}
	return m, k + int(short)
}

// flag is 1 for true and 0 for false.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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

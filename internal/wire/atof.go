package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// uint128 is one entry of pow10Tab.
type uint128 struct{ hi, lo uint64 }

// numberToken is one scanned token of the JSON number grammar.
type numberToken struct {
	n       int     // bytes in the token
	integer bool    // no fraction and no exponent
	fast    bool    // f is the token's value; otherwise strconv decides it
	f       float64 // the float64 strconv.ParseFloat rounds the token to
}

// scanNumber consumes the token of the JSON number grammar
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
// at the start of the window b, checking the grammar, accumulating the
// decimal mantissa and exponent and converting them in the same pass. It
// reads at most MaxNumberLen+1 bytes, which the caller has made sure are
// in the window unless the body ends sooner, so its verdict does not
// depend on how the body was cut into reads: a token that reaches the end
// of what it reads is too long or cut off by the end of the body.
func scanNumber(b []byte, t *numberToken) error {
	if len(b) > MaxNumberLen+1 {
		b = b[:MaxNumberLen+1]
	}
	var (
		man     uint64
		sig     int
		exp10   int
		integer = true
	)
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == start {
			return refuse(b, i, "want a number")
		}
		sig = i - start
	}
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		start := i
		if sig == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		first := i
		for i+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[i:])
			if leadingDigits(w) < 8 {
				break
			}
			man = man*1e8 + eightDigitsValue(w)
			i += 8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == start {
			return refuse(b, i, "want digits after the decimal point")
		}
		sig += i - first
		exp10 = start - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		minus := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			minus = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1e4 { // anything larger is out of range whatever the mantissa
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return refuse(b, i, "want digits in the exponent")
		}
		if minus {
			e = -e
		}
		exp10 += e
	}
	if i == len(b) {
		return refuse(b, i, "")
	}
	t.n, t.integer = i, integer

	// The value is ±man × 10^exp10 when sig, the digits from the first
	// non-zero one on, is at most 19; with more, man has wrapped. Two
	// cheap methods decide the float64 strconv.ParseFloat rounds it to:
	// Clinger's (a mantissa below 2^53 times or over an exact power of ten
	// is one correctly rounded operation) and Eisel–Lemire's. Left to
	// strconv are more than 19 significant digits, an exponent outside
	// pow10Tab, a result outside the normal range and Eisel–Lemire's
	// undecided cases.
	t.fast = sig <= 19 && pow10Min <= exp10 && exp10 <= float64MaxExp10
	if !t.fast {
		return nil
	}
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		t.f = float64(man)
		if exp10 < 0 {
			t.f /= float64Pow10[-exp10]
		} else {
			t.f *= float64Pow10[exp10]
		}
	} else {
		t.f, t.fast = eiselLemire(man, exp10)
	}
	if neg {
		t.f = -t.f
	}
	return nil
}

// refuse is the error for a token of the window b that breaks off at byte
// i: the grammar's msg inside the window, and past its end a token longer
// than MaxNumberLen or one the end of the body cut off.
func refuse(b []byte, i int, msg string) error {
	switch {
	case i < len(b):
		return errors.New(msg)
	case i > MaxNumberLen:
		return fmt.Errorf("number token longer than %d bytes", MaxNumberLen)
	}
	return io.ErrUnexpectedEOF
}

// leadingDigits counts the ASCII digits of w before its first other byte,
// the lowest byte being the first. A digit's high nibble is 3 and stays 3
// when 6 is added to the byte; the carry a byte from 0xFA up sends into
// the next one comes after the byte that ends the count.
func leadingDigits(w uint64) uint {
	const high = 0xF0F0F0F0F0F0F0F0
	other := (w&high | (w+0x0606060606060606)&high>>4) ^ 0x3333333333333333
	return uint(bits.TrailingZeros64(other)) / 8
}

// eightDigitsValue is the number the eight ASCII digits of w spell, the
// lowest byte being the first digit: three multiplies fold adjacent digits,
// then pairs, then quads.
func eightDigitsValue(w uint64) uint64 {
	const mask = 0x000000FF000000FF
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&mask)*(100+1e6<<32) + (w>>16&mask)*(1+1e4<<32)) >> 32
}

// value returns what strconv.ParseFloat(tok, 64) does for the token tok was
// scanned from, calling it only where scanNumber could not decide.
func (t *numberToken) value(tok string) (float64, error) {
	if t.fast {
		return t.f, nil
	}
	return strconv.ParseFloat(tok, 64)
}

// float64MaxExp10 is the largest decimal exponent a non-zero integer
// mantissa can carry without overflowing float64.
const float64MaxExp10 = 308

// float64Pow10 are the powers of ten a float64 holds exactly.
var float64Pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns man × 10^exp10 rounded to the nearest float64, or
// false when the 128-bit product cannot tell which float64 that is or it
// is not a normal number. exp10 is within pow10Tab.
//
// Adapted from eiselLemire64 in $GOROOT/src/strconv/eisel_lemire.go,
// Copyright 2020 The Go Authors, under the BSD-style licence in Go's
// LICENSE file; the comments name sections of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		return 0, true
	}
	pow := pow10Tab[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow.hi)

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow.lo)
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: zero or a wrap-around is subnormal space, 0x7FF
	// or above is Inf/NaN space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF), true
}

package wire

import (
	"math"
	"slices"
	"unsafe"
)

// The number codec has two tiers. The generic one is the Go code of
// atof.go and ftoa.go, one token or one value at a time; it is the only
// tier under the purego tag and off amd64, and the reference the other is
// tested against. The AVX2 tier (codec_amd64.s) takes the common case in
// batches and hands everything else back to the generic code:
//
//   - the decoder's run scanner consumes consecutive `number,` tokens of
//     the plain form -?(0|[1-9][0-9]*)(\.[0-9]+)? with at most 19
//     significant digits, none after whitespace, while 64 bytes of window
//     are left. It stops before the first token it does not recognise, so
//     every refusal, its text and its offset come from scanNumber.
//   - the encoder's batch formatter writes the values whose shortest
//     decimal (computed in Go) has its point at −5 … 17: "0.00000ddd" to
//     17 integer digits. Zero, exponent forms and larger integers go to
//     appendJSONFloat.

// useSIMD is whether the codec takes the AVX2 tier. It is a variable only
// so tests and benchmarks can pin the generic tier.
var useSIMD = hostSIMD

const (
	// runBatch bounds the tokens one scanRunAVX2 call decodes.
	runBatch = 256
	// runBehind is how far before a run's first token the scanner's loads
	// reach back (they end at a token's last digit); runAhead the window a
	// token's start needs: one 32-byte load of the token and its comma,
	// and room for a whole token at the scalar loop's bound after it.
	runBehind = 32
	runAhead  = 64
)

// run decodes a run of plain tokens at d.pos into dst with the vector
// scanner and returns how many it decoded, or 0 when the first token is
// not one it takes. The scanner leaves each token's digits as an integer
// in dst's bits and its length, sign and fraction digits in d.meta; the
// conversion is scanNumber's. A token whose conversion it cannot decide
// ends the run before it.
func (d *jsonDecoder) run(dst []float64) int {
	k := scanRunAVX2(&d.buf[d.pos], d.end-d.pos, (*uint64)(unsafe.Pointer(&dst[0])), min(len(dst), runBatch), &d.meta[0])
	for j, m := range d.meta[:k] {
		f, ok := convert(math.Float64bits(dst[j]), -int(m&0xFF))
		if !ok {
			return j
		}
		dst[j] = math.Float64frombits(math.Float64bits(f) | uint64(m&0x100)<<55) // the sign
		d.pos += int(m >> 9)
	}
	return k
}

const (
	// encodeBatch is how many values EncodeJSON hands appendValues at a
	// time, and the batch formatter's capacity.
	encodeBatch = 64
	// valueRoom is the buffer a value and its comma may take while being
	// written: a sign, then the formatter's 32-byte store or
	// appendJSONFloat's maxFloatLen, and the comma.
	valueRoom = 1 + maxFloatLen + 1
	// layoutRows are the point positions the batch formatter lays out,
	// dp = −5 … 17.
	layoutRows = 23
)

// layouts holds, per point position dp (row dp+5), the batch formatter's
// shuffle of a value's sixteen lower digits (bytes 0–31) and what it ORs in
// (bytes 32–63); layoutMetas the row's part of a value's meta word.
var layouts, layoutMetas = buildLayouts()

func buildLayouts() (tab [layoutRows][64]byte, metas [layoutRows]uint64) {
	for r := range tab {
		dp := r - 5
		shuf, fill := tab[r][:32], tab[r][32:]
		for i := range shuf {
			shuf[i] = 0x80 // a zero byte
		}
		var first, lead, intDP int
		if dp <= 0 {
			// 0.000ddd: "0.", −dp zeros, the first digit, the others.
			copy(fill, "0.00000"[:2-dp])
			first, lead = 2-dp, 2-dp
			for j := range 16 {
				shuf[3-dp+j] = byte(j)
			}
		} else {
			// dd.ddd: the first digit, dp−1 others, the point, the rest.
			// With no fraction the point lands where the comma goes.
			lead, intDP = 1, dp
			for j := range 16 {
				o := 1 + j
				if o >= dp {
					o++
				}
				shuf[o] = byte(j)
			}
			fill[dp] = '.'
		}
		metas[r] = uint64(r)<<8 | uint64(first)<<24 | uint64(lead)<<32 | uint64(intDP)<<40
	}
	return tab, metas
}

// appendValues appends each of vals, formatted as appendJSONFloat does,
// and a comma after it. len(vals) ≤ encodeBatch.
func appendValues(b []byte, vals []float64) []byte {
	b = slices.Grow(b, len(vals)*valueRoom)
	if !useSIMD {
		for _, v := range vals {
			b = appendJSONFloat(b, v)
			b = append(b, ',')
		}
		return b
	}
	// Schubfach for the whole batch first: each value's is a long chain of
	// dependent multiplies, and independent ones overlap (0.86× the time of
	// one value at a time, encoding http2d's replies). Then the values the
	// formatter lays out, as formatBatchAVX2 reads them: 17 digits, the
	// first in meta and the other sixteen in two groups. A shortest decimal
	// has at most 17 digits.
	var (
		ms     [encodeBatch]uint64 // 0 for a zero value
		ks     [encodeBatch]int
		digits [2*encodeBatch + 2]uint32 // the kernel reads pairs
		meta   [encodeBatch]uint64
	)
	for i, v := range vals {
		if abs := math.Float64bits(v) &^ (1 << 63); abs != 0 {
			ms[i], ks[i] = shortestDecimal(abs)
		}
	}
	n := 0
	for i, v := range vals {
		u := math.Float64bits(v)
		if m := ms[i]; m != 0 {
			nd := decimalLen(m)
			if dp := nd + ks[i]; -5 <= dp && dp <= 17 {
				m *= uint64Pow10[17-nd]
				hi := m / 1e8
				top := hi / 1e8
				digits[2*n], digits[2*n+1] = uint32(hi-top*1e8), uint32(m-hi*1e8)
				meta[n] = layoutMetas[dp+5] | '0' + top | u>>63<<16
				n++
				continue
			}
		}
		b = formatBatch(b, &digits, &meta, n)
		n = 0
		b = appendJSONFloat(b, v)
		b = append(b, ',')
	}
	return formatBatch(b, &digits, &meta, n)
}

// formatBatch appends the n values laid out in digits and meta; b has
// room for them.
func formatBatch(b []byte, digits *[2*encodeBatch + 2]uint32, meta *[encodeBatch]uint64, n int) []byte {
	if n == 0 {
		return b
	}
	l := len(b)
	return b[:l+formatBatchAVX2(unsafe.SliceData(b[l:]), &digits[0], &meta[0], n, &layouts)]
}

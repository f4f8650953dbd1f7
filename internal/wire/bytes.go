// Package wire is the one codec for operands that cross a process
// boundary: the byte-level helpers the shard tier's chunk frames are built
// from, and the two framings of cmd/fftserved's POST /transform.
//
//   - JSON (the default and the debug format): a strict single-pass decoder
//     for the fixed request schema that parses every number straight into
//     the operand slice the serving layer will own, and an encoder that
//     streams the result in fixed chunks, byte-identical to encoding/json.
//     Its number codec has a generic tier and an AVX2 tier (simd.go).
//   - Binary (Content-Type: application/octet-stream): the shape rides the
//     query string and the body is the operand's raw little-endian float64
//     words under the same CRC32-C header the shard chunks carry.
//
// Both framings share one shape validation (overflow-checked ∏dims, one
// element cap) and one error vocabulary; Status maps an error to the HTTP
// status a handler should answer with.
package wire

import (
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"unsafe"
)

// HeaderCRC carries the decimal CRC32-C of a raw little-endian body: shard
// chunks in both directions, and binary /transform requests and responses.
const HeaderCRC = "X-Shard-Crc32c"

// castagnoli is the CRC32-C table every frame checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ComplexBytes reinterprets a complex slice as its wire bytes without
// copying (the same trick the kernels and layout packages use). Payloads
// are the raw in-memory representation — interleaved float64 re/im pairs —
// on little-endian hosts.
func ComplexBytes(c []complex128) []byte {
	if len(c) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), len(c)*16)
}

// FloatBytes is ComplexBytes for a real slice.
func FloatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)
}

// Floats views a complex slice as its interleaved re,im float64 words
// without copying: the JSON framing's number stream is exactly this view.
func Floats(c []complex128) []float64 {
	if len(c) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&c[0])), len(c)*2)
}

// SetCRC stamps payload's checksum on an outgoing frame's headers.
func SetCRC(h http.Header, payload []byte) {
	h.Set(HeaderCRC, strconv.FormatUint(uint64(crc32.Checksum(payload, castagnoli)), 10))
}

// CheckCRC verifies payload against the frame's checksum header. A missing
// or malformed header is a plain (400) error; a mismatch wraps ErrChecksum.
func CheckCRC(h http.Header, payload []byte) error {
	want, err := strconv.ParseUint(h.Get(HeaderCRC), 10, 32)
	if err != nil {
		return fmt.Errorf("missing or malformed %s header", HeaderCRC)
	}
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, uint32(want))
	}
	return nil
}

package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// MaxElems caps ∏dims of one /transform request in either framing (2²⁶
// elements: a 1 GiB complex operand and as much again for the result).
// Larger shapes answer 413 before anything is allocated.
const MaxElems = 1 << 26

// Codec errors with their own HTTP status; every other decode error is a
// 400 (see Status).
var (
	// ErrTooLarge: the declared shape exceeds MaxElems, or the body exceeds
	// the bytes its declared shape can occupy (413).
	ErrTooLarge = errors.New("wire: request too large")
	// ErrChecksum: a binary body does not match its CRC32-C header (422,
	// the status the shard workers answer a corrupt chunk with).
	ErrChecksum = errors.New("wire: checksum mismatch")
)

// NonFiniteError reports a result the JSON framing cannot carry: JSON has
// no token for ±Inf or NaN. Index is the position in the response's number
// stream (interleaved re,im on complex sides) of the first one (422).
type NonFiniteError struct {
	Index int
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("wire: result value %d is %v, which JSON cannot carry (inputs overflowed float64; the binary framing returns non-finite values as is)",
		e.Index, e.Value)
}

// Status maps a codec error to the HTTP status a handler answers with.
func Status(err error) int {
	var nf *NonFiniteError
	var mb *http.MaxBytesError
	switch {
	case errors.Is(err, ErrTooLarge), errors.As(err, &mb):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrChecksum), errors.As(err, &nf):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// Shape is what a /transform request declares about its operand, in either
// framing. Dims beyond Rank are zero.
type Shape struct {
	Rank    int
	Dims    [3]int
	Inverse bool
	Real    bool // real-input (r2c/c2r) pipeline: Dims describe the real grid
	Sharded bool
}

// Request is one decoded /transform request: the shape and the operand,
// exactly one of Src (complex sides) and RealSrc (forward real input).
// The slices are freshly allocated and owned by the caller.
type Request struct {
	Shape
	Src     []complex128
	RealSrc []float64
}

// atoi is strconv.Atoi saturated at int's range, so a dim past it is too
// large (413) and not malformed (400) on 32- and 64-bit hosts alike.
func atoi(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if errors.Is(err, strconv.ErrRange) {
		err = nil
	}
	return n, err
}

// elems returns ∏Dims after validating the shape: rank in 1..3, every dim
// ≥ 1, a product that neither overflows nor exceeds MaxElems.
func (s Shape) elems() (int, error) {
	if s.Rank < 1 || s.Rank > 3 {
		return 0, fmt.Errorf("rank must be 1, 2 or 3, got %d", s.Rank)
	}
	n := 1
	for _, d := range s.Dims[:s.Rank] {
		if d < 1 {
			return 0, fmt.Errorf("dims must be ≥ 1, got %v", s.Dims[:s.Rank])
		}
		// Dividing the cap, not multiplying the dims, cannot overflow.
		if d > MaxElems/n {
			return 0, fmt.Errorf("%w: dims %v exceed %d elements", ErrTooLarge, s.Dims[:s.Rank], MaxElems)
		}
		n *= d
	}
	return n, nil
}

// specElems is the Hermitian half-spectrum element count of a real grid of
// n elements whose last (contiguous) dim is Dims[Rank-1].
func (s Shape) specElems(n int) int {
	last := s.Dims[s.Rank-1]
	return n / last * (last/2 + 1)
}

// srcLen returns the operand's length in float64 words and whether those
// words are interleaved re,im pairs.
func (s Shape) srcLen() (words int, cplx bool, err error) {
	n, err := s.elems()
	switch {
	case err != nil:
		return 0, false, err
	case s.Real && !s.Inverse:
		return n, false, nil
	case s.Real:
		return 2 * s.specElems(n), true, nil
	}
	return 2 * n, true, nil
}

// alloc makes the operand for a validated shape and returns its float64
// word view, the order both framings fill it in.
func (r *Request) alloc(words int, cplx bool) []float64 {
	if cplx {
		r.Src = make([]complex128, words/2)
		return Floats(r.Src)
	}
	r.RealSrc = make([]float64, words)
	return r.RealSrc
}

// Result is the output of one transform: Dst on complex sides, RealDst
// for an inverse real transform.
type Result struct {
	Dst     []complex128
	RealDst []float64
}

// NewResult allocates the result a decoded request's transform writes.
func (r *Request) NewResult() Result {
	n, _ := r.elems() // validated when r was decoded
	switch {
	case r.Real && r.Inverse:
		return Result{RealDst: make([]float64, n)}
	case r.Real:
		return Result{Dst: make([]complex128, r.specElems(n))}
	}
	return Result{Dst: make([]complex128, n)}
}

// words is the result's number stream: interleaved re,im or plain reals.
func (r Result) words() []float64 {
	if r.RealDst != nil {
		return r.RealDst
	}
	return Floats(r.Dst)
}

package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// MaxElems caps ∏dims of one /transform request in either framing (2²⁶
// elements: a 1 GiB complex operand and as much again for the result).
// Larger shapes answer 413 before anything is allocated. It never exceeds
// the serving layer's cap, core.MaxElems, which is one element less on a
// 32-bit host.
const MaxElems = min(1<<26, core.MaxElems)

// Codec errors with their own HTTP status; every other decode error is a
// 400 (see Status).
var (
	// ErrTooLarge: the declared shape exceeds MaxElems, or the body exceeds
	// the bytes its declared shape can occupy (413). It is core's sentinel,
	// which the shape rule wraps.
	ErrTooLarge = core.ErrTooLarge
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

// Core returns the transform the shape describes, the descriptor core's
// shape rule judges.
func (s Shape) Core() core.Shape {
	return core.Shape{Rank: s.Rank, Dims: s.Dims, Real: s.Real}
}

// srcLen refuses a shape the server would refuse — core's shape rule at
// MaxElems and, for a sharded request, core's sharded rule — and returns
// the operand's length in float64 words and whether those words are
// interleaved re,im pairs. Both framings run it before they read the
// operand.
func (s Shape) srcLen() (words int, cplx bool, err error) {
	c := s.Core()
	if err := c.Check(MaxElems); err != nil {
		return 0, false, err
	}
	if s.Sharded {
		if err := c.CheckSharded(); err != nil {
			return 0, false, err
		}
	}
	n, _ := c.Lens(s.Inverse)
	if s.Real && !s.Inverse {
		return n, false, nil
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
	_, n := r.Core().Lens(r.Inverse)
	if r.Real && r.Inverse {
		return Result{RealDst: make([]float64, n)}
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

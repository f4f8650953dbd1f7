package main

import (
	"fmt"
	"time"

	"repro"
)

// shape names a transform the public API can build. kind is c1d, c2d, c3d
// (complex) or r3d (real-input, Hermitian half spectrum); unused dims are 1
// and lead, so dims is always the row-major extent with dims[2] contiguous.
type shape struct {
	kind string
	dims [3]int
}

func (s shape) elems() int { return s.dims[0] * s.dims[1] * s.dims[2] }

// specElems is the spectrum length: elems for complex kinds, the Hermitian
// half k·n·(m/2+1) for r3d.
func (s shape) specElems() int {
	if s.kind == "r3d" {
		return s.dims[0] * s.dims[1] * (s.dims[2]/2 + 1)
	}
	return s.elems()
}

// stages is the number of load/compute/store stages one direction of the
// shape's default plan runs: one per dimension, and three for the six-step
// 1D factorisation (fft1dlarge).
func (s shape) stages() int {
	if s.kind == "c2d" {
		return 2
	}
	return 3
}

// bytesPerOp is the computed traffic of one forward+inverse round trip:
// every stage reads and writes the whole array once — 32 B per complex
// element per stage, 16 B per real element per stage for the packed real
// pipeline. Computed from the shape; cache misses are not counted.
func (s shape) bytesPerOp() float64 {
	per := 32.0
	if s.kind == "r3d" {
		per = 16
	}
	return 2 * float64(s.stages()) * per * float64(s.elems())
}

// footprint is the bytes one round trip touches: input, spectrum, output.
func (s shape) footprint() int64 {
	if s.kind == "r3d" {
		return int64(s.elems())*8*2 + int64(s.specElems())*16
	}
	return int64(s.elems()) * 16 * 3
}

func (s shape) String() string {
	switch s.kind {
	case "c1d":
		return fmt.Sprintf("complex 1D %d", s.dims[2])
	case "c2d":
		return fmt.Sprintf("complex 2D %d×%d", s.dims[1], s.dims[2])
	case "r3d":
		return fmt.Sprintf("real 3D %d×%d×%d", s.dims[0], s.dims[1], s.dims[2])
	}
	return fmt.Sprintf("complex 3D %d×%d×%d", s.dims[0], s.dims[1], s.dims[2])
}

// xform is one shape's buffers plus a plan built through the public repro
// constructors with no options — what a user gets. The buffers outlive the
// plan so set-up can be repeated without regenerating inputs.
type xform struct {
	sh          shape
	x, spec, bk []complex128 // complex kinds: x → spec → bk
	xr, bkr     []float64    // r3d: xr → spec → bkr

	fwd, inv func() error
	obs      func() repro.Observability
	closeFn  func()

	firstOp time.Duration // first round trip on the most recently built plan
}

func newXform(sh shape, seed int64) *xform {
	t := &xform{sh: sh, spec: make([]complex128, sh.specElems())}
	if sh.kind == "r3d" {
		t.xr, t.bkr = make([]float64, sh.elems()), make([]float64, sh.elems())
		fillReal(t.xr, seed, 1)
	} else {
		t.x, t.bk = make([]complex128, sh.elems()), make([]complex128, sh.elems())
		fillComplex(t.x, seed, 1)
	}
	return t
}

// complexPlan is what the three complex constructors of the public API
// have in common.
type complexPlan interface {
	Forward(dst, src []complex128) error
	Inverse(dst, src []complex128) error
	Observability() repro.Observability
	Close()
}

// build constructs the plan; this is the first call into the system.
func (t *xform) build() error {
	d := t.sh.dims
	if t.sh.kind == "r3d" {
		p, err := repro.NewRealFFT3D(d[0], d[1], d[2])
		if err != nil {
			return err
		}
		t.fwd = func() error { return p.Forward(t.spec, t.xr) }
		t.inv = func() error { return p.Inverse(t.bkr, t.spec) }
		t.obs, t.closeFn = p.Observability, p.Close
		return nil
	}
	var p complexPlan
	var err error
	switch t.sh.kind {
	case "c1d":
		p, err = repro.NewFFT1D(d[2])
	case "c2d":
		p, err = repro.NewFFT2D(d[1], d[2])
	case "c3d":
		p, err = repro.NewFFT3D(d[0], d[1], d[2])
	default:
		err = fmt.Errorf("unknown shape kind %q", t.sh.kind)
	}
	if err != nil {
		return err
	}
	t.fwd = func() error { return p.Forward(t.spec, t.x) }
	t.inv = func() error { return p.Inverse(t.bk, t.spec) }
	t.obs, t.closeFn = p.Observability, p.Close
	return nil
}

// firstRoundTrip builds the plan and runs its first round trip on the clock,
// then spot-checks the spectrum and the round trip off it.
func (t *xform) firstRoundTrip(seed int64) (time.Duration, error) {
	t0 := time.Now()
	if err := t.build(); err != nil {
		return 0, err
	}
	fwd, inv, err := t.roundTrip(nil, -1, 0)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	t.firstOp = fwd + inv
	if err := t.spotCheck(seed); err != nil {
		return d, err
	}
	return d, t.checkRoundTrip()
}

func (t *xform) close() {
	if t.closeFn != nil {
		t.closeFn()
		t.closeFn = nil
	}
}

// roundTrip runs forward then inverse, recording both as children of
// parent, and returns the two durations.
func (t *xform) roundTrip(rec *recorder, parent, op int) (fwd, inv time.Duration, err error) {
	h := rec.begin("forward", parent, op)
	t0 := time.Now()
	err = t.fwd()
	fwd = time.Since(t0)
	rec.end(h)
	if err != nil {
		return fwd, 0, fmt.Errorf("forward: %w", err)
	}
	h = rec.begin("inverse", parent, op)
	t0 = time.Now()
	err = t.inv()
	inv = time.Since(t0)
	rec.end(h)
	if err != nil {
		return fwd, inv, fmt.Errorf("inverse: %w", err)
	}
	return fwd, inv, nil
}

// forwardOf runs the plan's forward transform on another input (complex
// kinds): the expected output a system workload compares responses with.
func (t *xform) forwardOf(dst, src []complex128) error {
	x, spec := t.x, t.spec
	t.x, t.spec = src, dst
	defer func() { t.x, t.spec = x, spec }()
	return t.fwd()
}

// relErr is the round trip's max-relative error against the input.
func (t *xform) relErr() float64 {
	if t.sh.kind == "r3d" {
		return maxRelErrReal(t.bkr, t.xr)
	}
	return maxRelErr(t.bk, t.x)
}

// checkRoundTrip fails when the last round trip did not reproduce the input.
func (t *xform) checkRoundTrip() error {
	if e := t.relErr(); !(e <= roundTripTol) {
		return fmt.Errorf("round-trip max relative error %.3g > %.0e", e, roundTripTol)
	}
	return nil
}

// spotCheck compares four seeded bins of the current spectrum against a
// direct evaluation of the DFT definition on the input.
func (t *xform) spotCheck(seed int64) error {
	d := t.sh.dims
	at := func(i int) complex128 { return t.x[i] }
	last, rowLen := d[2], d[2]
	if t.sh.kind == "r3d" {
		at = func(i int) complex128 { return complex(t.xr[i], 0) }
		last, rowLen = d[2]/2+1, d[2]/2+1
	}
	specAt := func(b [3]int) complex128 { return t.spec[(b[0]*d[1]+b[1])*rowLen+b[2]] }
	return spotCheck(at, specAt, d, last, seed)
}

package kernels

// Arena is a bump-pointer scratch allocator for the steady-state compute
// path. Every executor lane owns one, so batched kernels and the
// fft1d drivers draw their ping-pong buffers from preallocated slabs
// instead of make/sync.Pool round trips: after the first transform warms
// the slabs, a reused plan's Transform performs zero heap allocations.
//
// Growth discipline: when a request does not fit, the arena allocates a
// fresh, larger slab and abandons the old one. Slices handed out earlier
// keep referencing the old slab (the callers' references keep it alive), so
// outstanding scratch stays valid across growth. Growth therefore only
// happens while a plan warms up; the steady state never allocates.
//
// The arena also carries the lane's prefetch cursor: what the codelets of
// the compute op it serves ask for while they run (Prefetch). It is empty
// unless the op's caller set it.
//
// An Arena is not safe for concurrent use; ownership is per worker.
type Arena struct {
	c    []complex128
	cOff int
	// Prefetch is the cursor fft1d hands every codelet it runs on this arena.
	Prefetch Prefetch
}

// NewArena returns an arena pre-sized to complexElems (zero is fine; the
// slab grows on demand). The second argument is ignored: it sized the
// float64 slab of the retired block-interleaved format, and stays in the
// signature because the frozen benchmark/ program passes it.
func NewArena(complexElems, _ int) *Arena {
	a := &Arena{}
	if complexElems > 0 {
		a.c = make([]complex128, complexElems)
	}
	return a
}

// Mark captures the current bump position; Rewind returns to it so loops
// can reuse the same scratch region per iteration.
type Mark struct{ c int }

// Mark returns the current allocation position.
func (a *Arena) Mark() Mark { return Mark{a.cOff} }

// Rewind releases everything allocated since m. After a growth event the
// region below the mark in the new slab is simply left unused — outstanding
// pre-mark slices live in the abandoned slab, so this is always safe.
func (a *Arena) Rewind(m Mark) { a.cOff = m.c }

// Reset releases the whole arena for reuse. Called by the executor before
// each compute op; the slab is retained.
func (a *Arena) Reset() { a.cOff = 0 }

// Complex returns an n-element complex scratch slice. Contents are
// unspecified; callers must fully overwrite what they read.
func (a *Arena) Complex(n int) []complex128 {
	if a.cOff+n > len(a.c) {
		a.growComplex(n)
	}
	s := a.c[a.cOff : a.cOff+n]
	a.cOff += n
	return s
}

func (a *Arena) growComplex(n int) {
	size := 2 * len(a.c)
	if size < n {
		size = n
	}
	if size < 64 {
		size = 64
	}
	a.c = make([]complex128, size)
	a.cOff = 0
}

// ComplexCap reports the slab size (for tests and sizing diagnostics).
func (a *Arena) ComplexCap() int { return len(a.c) }

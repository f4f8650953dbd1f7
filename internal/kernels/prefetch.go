package kernels

import "unsafe"

// Prefetch is a soft-DMA cursor: the bytes [next, end) the radix-4, -8 and
// -16 codelets ask the memory system for while they compute, step bytes
// before each butterfly body, with PREFETCHT2 (into L2), one 64-byte line at
// a time. A call of i bodies moves next to min(end, next + i·step), so the
// same cursor, handed from call to call, walks its range once across a
// whole compute op. It is the paper's data thread (§III) folded into the
// compute loop of one core: a stage graph points it at the lane's next block
// while the current one computes (stagegraph.Stage.Prefetch), so the block
// is in L2 when its own compute starts.
//
// The zero value is empty and costs one compare a body. The pure-Go tier
// and the generic stages ignore the cursor. Prefetches change no
// arithmetic, never fault and pin nothing: the caller keeps the range's
// array alive.
type Prefetch struct {
	next, end, step uintptr
}

// NewPrefetch returns a cursor over block's bytes that advances step bytes
// a butterfly body (zero-length block or step ≤ 0: empty).
func NewPrefetch(block []complex128, step int) Prefetch {
	if len(block) == 0 || step <= 0 {
		return Prefetch{}
	}
	p := uintptr(unsafe.Pointer(&block[0]))
	return Prefetch{next: p, end: p + uintptr(len(block))*16, step: uintptr(step)}
}

// cursor is what a codelet call takes: *pf, or the empty cursor for nil.
func (pf *Prefetch) cursor() Prefetch {
	if pf == nil {
		return Prefetch{}
	}
	return *pf
}

// advance records where a codelet call left the cursor.
func (pf *Prefetch) advance(next uintptr) {
	if pf != nil {
		pf.next = next
	}
}

package stagegraph

import "sync"

// Barrier is a reusable cyclic barrier for a fixed party count, the Go
// analogue of the paper's #pragma omp barrier. It can be aborted: a worker
// that panics poisons the barrier so the remaining workers unblock and bail
// out instead of deadlocking.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
	aborted bool
}

// NewBarrier returns a barrier for the given party count.
func NewBarrier(parties int) *Barrier {
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait for the current
// generation. It reports false if the barrier was aborted (callers must
// stop participating).
func (b *Barrier) Wait() bool {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return false
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return true
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	ok := !b.aborted
	b.mu.Unlock()
	return ok
}

// Abort poisons the barrier, waking every waiter with a failure result.
func (b *Barrier) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

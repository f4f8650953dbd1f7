package stagegraph

import (
	"slices"
	"sync"
)

// eng is the process's one set of lanes and middle arrays. The paper runs
// one team of pinned threads and one LLC-sized buffer per socket for
// whatever transform arrives (§III); here a plan is its compiled schedule,
// and each run leases a lane team of its lane count and one work array for
// its graph's middle arrays, and returns both when it ends. So an idle plan
// holds no goroutine and no array, and a pooled array stays faulted in for
// the next run that fits in it.
//
// Idle teams and arrays are kept only up to the most that runs ever leased
// at once: a team is built only when none of its lane count is idle, and a
// lease that no idle array fits drops every idle array before it allocates.
// When the last live runner closes, everything idle is released.
var eng engine

type engine struct {
	mu     sync.Mutex
	live   int            // runners not yet closed
	teams  []*Executor    // idle teams, any lane count
	arrays [][]complex128 // idle work arrays, each at its full capacity
}

func (e *engine) open() {
	e.mu.Lock()
	e.live++
	e.mu.Unlock()
}

func (e *engine) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live--; e.live > 0 {
		return
	}
	for _, t := range e.teams {
		t.Close()
	}
	e.teams, e.arrays = slices.Delete(e.teams, 0, len(e.teams)), slices.Delete(e.arrays, 0, len(e.arrays))
}

// team leases an idle team of the given lane count, or builds one.
func (e *engine) team(lanes int) *Executor {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, t := range e.teams {
		if t.Lanes() == lanes {
			e.teams = slices.Delete(e.teams, i, i+1)
			return t
		}
	}
	t, _ := NewExecutor(lanes) // a runner's lane count is ≥ 1
	return t
}

// putTeam returns a leased team. One a lane panicked in, or one returned
// after the last runner closed, is closed instead.
func (e *engine) putTeam(t *Executor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live == 0 || !t.usable() {
		t.Close()
		return
	}
	e.teams = append(e.teams, t)
}

// lease returns a work array of n elements, nil for none: the smallest idle
// array that holds n, sliced, or a new one. Its contents are whatever the
// last run left there.
func (e *engine) lease(n int) []complex128 {
	if n == 0 {
		return nil
	}
	e.mu.Lock()
	best := -1
	for i, a := range e.arrays {
		if cap(a) >= n && (best < 0 || cap(a) < cap(e.arrays[best])) {
			best = i
		}
	}
	var a []complex128
	if best >= 0 {
		a = e.arrays[best][:n]
		e.arrays = slices.Delete(e.arrays, best, best+1)
	} else {
		e.arrays = slices.Delete(e.arrays, 0, len(e.arrays)) // all too small
	}
	e.mu.Unlock()
	if a == nil {
		a = make([]complex128, n) // outside the lock: it may zero a large array
	}
	return a
}

// put returns a leased work array; nil is a no-op, and one returned after
// the last runner closed is dropped.
func (e *engine) put(a []complex128) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a != nil && e.live > 0 {
		e.arrays = append(e.arrays, a[:cap(a)])
	}
}

// Lease returns a complex array of n elements from the engine's pool, its
// contents undefined, for a temporary that outlives no call
// (core.Plan.InPlace); Return hands it back.
func Lease(n int) []complex128 { return eng.lease(n) }

// Return hands back an array Lease returned.
func Return(a []complex128) { eng.put(a) }

package stagegraph

// Partition divides total work items among workers and returns the half-open
// range [lo, hi) owned by the given worker: a lane's share of a stage's
// iterations, or a baseline worker's share of its pencils. Remainder items go to the lowest
// slots, so ranges differ in size by at most one.
func Partition(total, worker, workers int) (lo, hi int) {
	if workers < 1 || worker < 0 || worker >= workers {
		panic("stagegraph: invalid Partition arguments")
	}
	base := total / workers
	rem := total % workers
	lo = worker*base + min(worker, rem)
	hi = lo + base
	if worker < rem {
		hi++
	}
	return lo, hi
}

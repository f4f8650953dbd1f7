package stagegraph

// Partition divides total work items among workers and returns the half-open
// range [lo, hi) owned by the given worker. Remainder items go to the lowest
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

// PartitionBlocks is Partition over block-granular work: it divides nblocks
// blocks and returns element ranges scaled by blockSize. Use it to keep
// worker boundaries cacheline-aligned (the paper moves data at μ-element
// granularity).
func PartitionBlocks(nblocks, blockSize, worker, workers int) (lo, hi int) {
	bl, bh := Partition(nblocks, worker, workers)
	return bl * blockSize, bh * blockSize
}

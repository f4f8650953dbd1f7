package obs

import "strconv"

// BucketQuantile returns the upper bound of the log₂ bucket holding the q-th
// fraction of the observations counted in counts, whose bucket i counts
// values in [2^i, 2^(i+1)): clamped to 2^62, and 0 when nothing was
// observed. Bucketed quantiles are coarse — within 2× — which is plenty to
// tell a queueing collapse from a healthy pipeline. The serving layer's
// latency quantiles and the shard peers' come from it.
func BucketQuantile[C int64 | uint64](counts *[64]C, q float64) int64 {
	var total C
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := C(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum C
	for i, c := range counts {
		cum += c
		if cum > rank {
			return 1 << min(i+1, 62)
		}
	}
	return 1 << 62
}

// Log2Histogram writes one Prometheus histogram of log₂-nanosecond buckets
// under name: counts[i] observations in [2^i, 2^(i+1)) ns, each multiplied
// by scale (a sampled histogram scaled up to its whole population; 1
// otherwise), as cumulative _bucket lines up to the highest occupied bucket
// with their upper bounds in seconds, then the +Inf bucket and _count, both
// count, and _sum, sumNs·scale in seconds. labels follow "le" on every
// line. The request-latency histogram of the serving layer and the shard
// peers' chunk-latency histograms are both written by it.
func Log2Histogram[C int64 | uint64](p *PromWriter, name string, counts *[64]C, scale float64, sumNs C, count float64, labels ...string) {
	last := -1
	for i, c := range counts {
		if float64(c)*scale > 0 {
			last = i
		}
	}
	with := func(le string) []string { return append([]string{"le", le}, labels...) }
	var cum float64
	for i := 0; i <= last; i++ {
		cum += float64(counts[i]) * scale
		ub := float64(uint64(1)<<uint(i+1)) / 1e9
		p.Sample(name+"_bucket", cum, with(strconv.FormatFloat(ub, 'g', -1, 64))...)
	}
	p.Sample(name+"_bucket", count, with("+Inf")...)
	p.Sample(name+"_sum", float64(sumNs)*scale/1e9, labels...)
	p.Sample(name+"_count", count, labels...)
}

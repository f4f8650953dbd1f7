package main

// Seeded input generation. The benchmark owns its generator (splitmix64)
// so the same -seed gives the same bytes on every Go release; math/rand's
// stream is not part of its compatibility promise for every source.

type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream id
// (one id per array the run generates).
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [-1, 1).
func (r *rng) float() float64 { return float64(r.next()>>11)/(1<<52) - 1 }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func fillComplex(x []complex128, seed int64, stream uint64) {
	r := newRNG(seed, stream)
	for i := range x {
		x[i] = complex(r.float(), r.float())
	}
}

func fillReal(x []float64, seed int64, stream uint64) {
	r := newRNG(seed, stream)
	for i := range x {
		x[i] = r.float()
	}
}

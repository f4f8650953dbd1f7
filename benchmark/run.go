package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one named load shape. The runner calls prepare once, then
// setup (possibly several times, each followed by teardown), then op in a
// closed loop from clients() goroutines, then teardown.
type workload interface {
	// ref is the in-process plan of the shape one op carries; transform
	// workloads run their ops on it, system workloads verify against it.
	ref() *xform
	clients() int
	// setupReps is how many times a run sets the system up; setup_s is the
	// median. The first set-up of a process is cold and the rest are warm, so
	// the count is odd and at least 5 — a median of 3 is whichever warm one
	// was disturbed — and higher the cheaper a set-up is. The exception is
	// where one set-up costs seconds (the memory-regime transforms allocate
	// and fault in gigabytes on their first op, and a second set-up in the
	// same process times the garbage collector, not the system): those set
	// up once, cold, per process.
	setupReps() int
	// bytesPerOp is the fixed computed bytes behind computed_gbs.
	bytesPerOp() float64
	// prepare generates inputs from the seed and builds what is not part of
	// the system's own set-up (untimed).
	prepare(seed int64) error
	// setup runs from the first call into the system to the end of the
	// first op and returns that duration; it then verifies the op's output
	// off the clock.
	setup() (time.Duration, error)
	// op runs the n-th op of client c and returns the op's duration with
	// output verification excluded. A wrong output is an error. rec is nil
	// for untraced ops.
	op(c, n int, rec *recorder) (time.Duration, error)
	teardown()
	// peakRSSMiB is VmHWM of the process that executes the transforms.
	peakRSSMiB() float64
	// layers adds the workload's own per-layer family from a traced pass
	// (nothing for workloads whose layers are all read off ref()).
	layers(m metrics, p *pass)
}

type metrics map[string]float64

// pass is one closed-loop measurement.
type pass struct {
	clients   int
	lat       []time.Duration   // untraced ops (in a traced pass: the controls)
	byClient  [][]time.Duration // lat per client, in the order the ops ran
	tracedLat []time.Duration   // traced ops
	attempted int
	failed    int
	firstErr  error
	mallocs   uint64
	peakRSS   float64 // w.peakRSSMiB() as the last op returned
	recs      []*recorder
}

func (p *pass) ok() int { return len(p.lat) + len(p.tracedLat) }

// rateWindows is how many consecutive windows a client's ops are cut into
// for opsPerSec: a quarter of a second each, shorter than the neighbours'
// spells (with 11 windows the same blocks spread 9.4 %, with 101 7.6 %).
const rateWindows = 101

// quietShare is the share of a pass the end-to-end speeds are read from: op
// latency at its 10th percentile, throughput at the 90th percentile of its
// windows. The host's other tenants only ever add time, in spells of seconds
// to minutes, so the fast tail of a pass is the code and the rest is the
// code plus the neighbours: over sixteen 25 s blocks of cache2d's loop in a
// noisy spell the block mean spread 12.6 % (q3−q1 over median), the median
// 11.6 %, the 25th percentile 8.7 %, the 10th 6.8 %. A change to the code
// moves every quantile; the quiet one is the one that repeats.
const quietShare = 0.10

// opsPerSec is the closed loop's throughput with the verification between
// ops taken off the clock: each client's ops are cut, in the order they ran,
// into rateWindows windows of equal op count, a window's rate is its ops over
// the time they took, the clients' rates are added window by window (the
// i-th windows cover the same stretch of the pass, and what one client loses
// to the other inside it is not a change in speed), and the result is the
// window at the 1 − quietShare percentile (the eleventh fastest of 101).
// With fewer ops than windows every op is its own window.
func opsPerSec(byClient [][]time.Duration) float64 {
	w := rateWindows
	for _, lat := range byClient {
		w = min(w, len(lat))
	}
	rates := make([]float64, w)
	for _, lat := range byClient {
		for i := range rates {
			win := lat[i*len(lat)/w : (i+1)*len(lat)/w]
			rates[i] += ratio(float64(len(win)), total(win).Seconds())
		}
	}
	return percentile(rates, 1-quietShare)
}

// samples collects a client's op durations in fixed chunks. A slice grown
// by append leaves every outgrown copy to the collector — at serve1d's
// 16 k ops/s per client four times the sample itself, which made the
// harness, not the server, most of that process's heap and moved its
// peak_rss_mib by ±5 MiB between identical runs.
type samples struct{ chunks [][]time.Duration }

const sampleChunk = 1 << 15

func (s *samples) add(d time.Duration) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		s.chunks = append(s.chunks, make([]time.Duration, 0, sampleChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, d)
}

func (s *samples) flat() []time.Duration {
	out := make([]time.Duration, 0, len(s.chunks)*sampleChunk)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// runPass drives w for d. In a traced pass every second op of a client is
// traced and the others are its untraced controls, so tracing overhead is
// measured inside one pass against the same machine state.
func runPass(w workload, d time.Duration, traced bool) *pass {
	p := &pass{clients: w.clients()}
	type result struct {
		lat, tracedLat    samples
		attempted, failed int
		firstErr          error
	}
	res := make([]result, p.clients)
	origin := time.Now()
	if traced {
		for c := 0; c < p.clients; c++ {
			p.recs = append(p.recs, newRecorder(c, origin))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for n := 0; n == 0 || time.Since(origin) < d; n++ {
				var rec *recorder
				if traced && n%2 == 1 {
					rec = p.recs[c]
				}
				r.attempted++
				dur, err := w.op(c, n, rec)
				switch {
				case err != nil:
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("client %d op %d: %w", c, n, err)
					}
				case rec != nil:
					r.tracedLat.add(dur)
				default:
					r.lat.add(dur)
				}
			}
		}(c)
	}
	wg.Wait()
	p.peakRSS = w.peakRSSMiB() // before the arithmetic below allocates
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	for _, r := range res {
		lat := r.lat.flat()
		p.lat = append(p.lat, lat...)
		p.byClient = append(p.byClient, lat)
		p.tracedLat = append(p.tracedLat, r.tracedLat.flat()...)
		p.attempted += r.attempted
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
	}
	return p
}

// setUp runs w.setup w.setupReps() times, tearing down between, and leaves
// the last one standing for the measurement. setup_s is the median of the
// durations.
func setUp(w workload) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < w.setupReps(); i++ {
		if i > 0 {
			w.teardown()
			runtime.GC() // or each repetition's garbage would pile into peak_rss_mib
		}
		d, err := w.setup()
		if err != nil {
			return ds, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// vmHWMMiB reads a process's peak resident set from /proc (0 if absent).
func vmHWMMiB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

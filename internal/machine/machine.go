// Package machine describes the five systems the paper evaluates (§V and
// Fig. 2) as data: core/thread counts, cache hierarchies, DRAM sizes, STREAM
// bandwidths and interconnect links. The performance model
// (internal/perfmodel), the cache simulator experiments and the benchmark
// harness all consume these descriptions, so the paper-scale figures are
// regenerated against the same machines the paper used.
package machine

import (
	"fmt"
	"strings"
)

// CacheLevel describes one level of the hierarchy.
type CacheLevel struct {
	Level     int
	SizeBytes int
	Ways      int
	LineBytes int
	// SharedBy is the number of hardware threads sharing one instance.
	SharedBy int
}

// Sets returns the number of sets.
func (c CacheLevel) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Machine is a complete system description.
type Machine struct {
	Name    string
	Vendor  string // "intel" or "amd"
	Sockets int
	// CoresPerSocket and ThreadsPerCore give the thread budget; the paper
	// splits it evenly into compute and data threads.
	CoresPerSocket int
	ThreadsPerCore int
	FreqGHz        float64
	SIMD           string // "avx" (4 doubles/op) or "sse" (2 doubles/op)
	Caches         []CacheLevel
	DRAMGB         int
	// StreamGBs is the measured STREAM bandwidth of the whole machine in
	// GB/s (§V lists 20/40/12 GB/s single socket, 85/20 GB/s dual).
	StreamGBs float64
	// LinkGBs is the per-direction QPI/HT bandwidth between sockets
	// (0 for single-socket machines).
	LinkGBs float64
}

// Threads returns the total hardware thread count.
func (m Machine) Threads() int { return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore }

// LLC returns the last-level cache description.
func (m Machine) LLC() CacheLevel { return m.Caches[len(m.Caches)-1] }

// SocketStreamGBs returns the per-socket STREAM bandwidth.
func (m Machine) SocketStreamGBs() float64 { return m.StreamGBs / float64(m.Sockets) }

// DefaultBufferElems returns the paper's buffer sizing b = LLC/2 expressed
// in complex128 elements, split over two halves (so each pipeline half is
// LLC/4).
func (m Machine) DefaultBufferElems() int {
	return m.LLC().SizeBytes / 2 / 16 / 2
}

// VectorDoubles returns the SIMD width in float64 lanes.
func (m Machine) VectorDoubles() int {
	if m.SIMD == "avx" {
		return 4
	}
	return 2
}

// FlopsPerCycle estimates double-precision FLOPs per cycle per core: two
// FMA pipes at the SIMD width (all five paper machines are FMA-capable
// Haswell/Kaby-Lake/Piledriver/Bulldozer parts).
func (m Machine) FlopsPerCycle() float64 { return 4 * float64(m.VectorDoubles()) }

// PeakGflops returns the nominal compute peak of the machine.
func (m Machine) PeakGflops() float64 {
	return m.FreqGHz * m.FlopsPerCycle() * float64(m.Sockets*m.CoresPerSocket)
}

// The five paper machines.
var (
	// Haswell4770K is the quad-core Intel Haswell 4770K desktop
	// (8 threads, 8 MB L3, 32 GB DRAM, 20 GB/s STREAM).
	Haswell4770K = Machine{
		Name: "Intel Haswell 4770K", Vendor: "intel",
		Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2,
		FreqGHz: 3.5, SIMD: "avx",
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, SharedBy: 2},
			{Level: 2, SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, SharedBy: 2},
			{Level: 3, SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, SharedBy: 8},
		},
		DRAMGB: 32, StreamGBs: 20,
	}

	// KabyLake7700K is the quad-core Intel Kaby Lake 7700K
	// (8 threads, 8 MB L3, 64 GB DRAM, 40 GB/s STREAM; Figs. 1 and 9).
	KabyLake7700K = Machine{
		Name: "Intel Kaby Lake 7700K", Vendor: "intel",
		Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2,
		FreqGHz: 4.5, SIMD: "avx",
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, SharedBy: 2},
			{Level: 2, SizeBytes: 256 << 10, Ways: 4, LineBytes: 64, SharedBy: 2},
			{Level: 3, SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, SharedBy: 8},
		},
		DRAMGB: 64, StreamGBs: 40,
	}

	// FX8350 is the AMD FX-8350 Piledriver (8 threads across 4 modules,
	// 8 MB L3, 64 GB DRAM, 12 GB/s STREAM; Fig. 2B topology).
	FX8350 = Machine{
		Name: "AMD FX-8350", Vendor: "amd",
		Sockets: 1, CoresPerSocket: 8, ThreadsPerCore: 1,
		FreqGHz: 4.0, SIMD: "avx",
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, SharedBy: 1},
			{Level: 2, SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, SharedBy: 2},
			{Level: 3, SizeBytes: 8 << 20, Ways: 64, LineBytes: 64, SharedBy: 8},
		},
		DRAMGB: 64, StreamGBs: 12,
	}

	// Haswell2667 is the dual-socket Intel Xeon E5-2667 v3
	// (16 threads, 20 MB L3 per socket, 256 GB DRAM, 85 GB/s aggregate
	// STREAM, QPI between sockets; Fig. 10).
	Haswell2667 = Machine{
		Name: "Intel Haswell 2667v3 (2S)", Vendor: "intel",
		Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 1,
		FreqGHz: 3.2, SIMD: "avx",
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, SharedBy: 1},
			{Level: 2, SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, SharedBy: 1},
			{Level: 3, SizeBytes: 20 << 20, Ways: 20, LineBytes: 64, SharedBy: 8},
		},
		DRAMGB: 256, StreamGBs: 85, LinkGBs: 16,
	}

	// Interlagos6276 is the dual-socket AMD Opteron 6276 (Blue Waters
	// node class: 16 threads, 16 MB L3 per socket, 64 GB DRAM, 20 GB/s
	// aggregate STREAM, HyperTransport links comparable to local DRAM
	// bandwidth — the reason its socket scaling is better, §V).
	Interlagos6276 = Machine{
		Name: "AMD Opteron 6276 Interlagos (2S)", Vendor: "amd",
		Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 1,
		FreqGHz: 2.3, SIMD: "sse",
		Caches: []CacheLevel{
			{Level: 1, SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, SharedBy: 1},
			{Level: 2, SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, SharedBy: 2},
			{Level: 3, SizeBytes: 16 << 20, Ways: 64, LineBytes: 64, SharedBy: 8},
		},
		DRAMGB: 64, StreamGBs: 20, LinkGBs: 9,
	}
)

// All lists every described machine.
var All = []Machine{Haswell4770K, KabyLake7700K, FX8350, Haswell2667, Interlagos6276}

// ByName returns the machine with the given name.
func ByName(name string) (Machine, error) {
	for _, m := range All {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q", name)
}

// Lookup resolves a machine from a user-supplied spelling: an exact name
// first, then a unique case-insensitive substring ("7700k", "fx-8350",
// "interlagos"). Ambiguous or unknown spellings return an error listing the
// candidates.
func Lookup(name string) (Machine, error) {
	if m, err := ByName(name); err == nil {
		return m, nil
	}
	want := strings.ToLower(name)
	var hits []Machine
	for _, m := range All {
		if strings.Contains(strings.ToLower(m.Name), want) {
			hits = append(hits, m)
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return Machine{}, fmt.Errorf("machine: unknown machine %q", name)
	default:
		names := make([]string, len(hits))
		for i, m := range hits {
			names[i] = m.Name
		}
		return Machine{}, fmt.Errorf("machine: %q is ambiguous: %s", name, strings.Join(names, ", "))
	}
}

package obs

import (
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardMetrics holds the distributed shard tier's counters: job-level
// accounting on the coordinator side, byte-exact exchange accounting on
// the worker side. Every byte counter measures payload bytes on the wire
// (16 bytes per complex element), not HTTP framing, so the exchange
// families are directly comparable to the fft_stage_* DRAM families.
// All fields are updated with atomics; one instance may be shared by a
// coordinator and a worker living in the same process.
type ShardMetrics struct {
	// Coordinator-side job accounting.
	JobsStarted   atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	LastWorkers   atomic.Int64 // fleet size of the most recent job

	// Coordinator payload bytes by phase.
	ScatterBytes atomic.Int64
	GatherBytes  atomic.Int64

	// Worker-side job accounting.
	WorkerJobsCompleted atomic.Int64
	WorkerJobsFailed    atomic.Int64

	// Exchange chunk accounting (worker side).
	ChunksSent      atomic.Int64
	ChunksReceived  atomic.Int64
	ChunksRejected  atomic.Int64 // checksum mismatches refused with 400
	ChunksDuplicate atomic.Int64 // retransmits dropped by the dedup bitmap
	Retries         atomic.Int64 // chunk POST/GET attempts beyond the first

	// Exchange payload bytes (worker side).
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64

	// Exchange wall time: nanoseconds spent between a worker's front
	// graph finishing and its last inbound chunk settling (the exposed
	// non-overlapped part of the exchange), plus a gauge with the most
	// recent job's aggregate exchange throughput in GB/s.
	ExchangeWaitNanos atomic.Int64
	lastExchangeGBs   atomic.Uint64 // float64 bits

	// stragglerRatio is the most recent job's max/mean per-worker busy
	// time (front + exchange wait + back), float64 bits. 1.0 means a
	// perfectly balanced fleet; the gap above 1 is the slack the slowest
	// worker imposes on everyone's gather.
	stragglerRatio atomic.Uint64

	// peers accumulates per-peer transfer accounting keyed by peer base
	// URL — the coordinator's view of scatter/gather plus each worker's
	// view of its exchange sends. Guarded by peersMu; the chunk hot path
	// takes the lock once per chunk, which is noise next to the transfer.
	peersMu sync.Mutex
	peers   map[string]*PeerStats
}

// PeerStats is the per-peer slice of the exchange accounting: payload
// bytes and chunks moved to or from one peer, retries attributed to it,
// and a log₂-nanosecond latency histogram of its chunk transfers — the
// source of the real Prometheus fft_exchange_chunk_latency_seconds
// histogram family and its p50/p99.
type PeerStats struct {
	Bytes   int64
	Chunks  int64
	Retries int64
	sumNs   int64
	buckets [64]int64 // bucket i counts transfers in [2^i, 2^(i+1)) ns
}

// ObservePeerChunk records one chunk transfer to or from peer.
func (s *ShardMetrics) ObservePeerChunk(peer string, bytes int64, d time.Duration) {
	ns := d.Nanoseconds()
	if ns <= 0 {
		ns = 1
	}
	s.peersMu.Lock()
	p := s.peerLocked(peer)
	p.Bytes += bytes
	p.Chunks++
	p.sumNs += ns
	p.buckets[bits.Len64(uint64(ns))-1]++
	s.peersMu.Unlock()
}

// AddPeerRetry attributes one transfer retry to peer.
func (s *ShardMetrics) AddPeerRetry(peer string) {
	s.peersMu.Lock()
	s.peerLocked(peer).Retries++
	s.peersMu.Unlock()
}

func (s *ShardMetrics) peerLocked(peer string) *PeerStats {
	if s.peers == nil {
		s.peers = make(map[string]*PeerStats)
	}
	p := s.peers[peer]
	if p == nil {
		p = &PeerStats{}
		s.peers[peer] = p
	}
	return p
}

// PeerSnapshot is one peer's accounting plus derived latency quantiles.
type PeerSnapshot struct {
	Peer    string `json:"peer"`
	Bytes   int64  `json:"bytes"`
	Chunks  int64  `json:"chunks"`
	Retries int64  `json:"retries"`
	P50Ns   int64  `json:"p50_latency_ns"`
	P99Ns   int64  `json:"p99_latency_ns"`
}

// PeerSnapshots returns every peer's accounting sorted by peer URL.
func (s *ShardMetrics) PeerSnapshots() []PeerSnapshot {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	out := make([]PeerSnapshot, 0, len(s.peers))
	for peer, p := range s.peers {
		out = append(out, PeerSnapshot{
			Peer: peer, Bytes: p.Bytes, Chunks: p.Chunks, Retries: p.Retries,
			P50Ns: BucketQuantile(&p.buckets, 0.50),
			P99Ns: BucketQuantile(&p.buckets, 0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// SetStragglerRatio records the most recent job's max/mean worker busy
// time; ratio ≤ 0 is recorded as 0 (unknown).
func (s *ShardMetrics) SetStragglerRatio(ratio float64) {
	if ratio < 0 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		ratio = 0
	}
	s.stragglerRatio.Store(math.Float64bits(ratio))
}

// StragglerRatio returns the most recent job's straggler ratio.
func (s *ShardMetrics) StragglerRatio() float64 {
	return math.Float64frombits(s.stragglerRatio.Load())
}

// SetLastExchangeGBs records the most recent job's exchange throughput.
func (s *ShardMetrics) SetLastExchangeGBs(gbs float64) {
	s.lastExchangeGBs.Store(math.Float64bits(gbs))
}

// LastExchangeGBs returns the most recent job's exchange throughput.
func (s *ShardMetrics) LastExchangeGBs() float64 {
	return math.Float64frombits(s.lastExchangeGBs.Load())
}

// WritePrometheus renders the fft_shard_* and fft_exchange_* families in
// Prometheus text exposition format.
func (s *ShardMetrics) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)

	p.Family("fft_shard_jobs_total", "Sharded transforms by role and final disposition.", "counter")
	p.Sample("fft_shard_jobs_total", float64(s.JobsStarted.Load()), "role", "coordinator", "result", "started")
	p.Sample("fft_shard_jobs_total", float64(s.JobsCompleted.Load()), "role", "coordinator", "result", "completed")
	p.Sample("fft_shard_jobs_total", float64(s.JobsFailed.Load()), "role", "coordinator", "result", "failed")
	p.Sample("fft_shard_jobs_total", float64(s.WorkerJobsCompleted.Load()), "role", "worker", "result", "completed")
	p.Sample("fft_shard_jobs_total", float64(s.WorkerJobsFailed.Load()), "role", "worker", "result", "failed")

	p.Family("fft_shard_workers", "Fleet size of the most recent sharded transform.", "gauge")
	p.Sample("fft_shard_workers", float64(s.LastWorkers.Load()))

	p.Family("fft_shard_bytes_total", "Coordinator payload bytes by phase.", "counter")
	p.Sample("fft_shard_bytes_total", float64(s.ScatterBytes.Load()), "phase", "scatter")
	p.Sample("fft_shard_bytes_total", float64(s.GatherBytes.Load()), "phase", "gather")

	p.Family("fft_exchange_chunks_total", "Inter-worker exchange chunks by disposition.", "counter")
	p.Sample("fft_exchange_chunks_total", float64(s.ChunksSent.Load()), "disposition", "sent")
	p.Sample("fft_exchange_chunks_total", float64(s.ChunksReceived.Load()), "disposition", "received")
	p.Sample("fft_exchange_chunks_total", float64(s.ChunksRejected.Load()), "disposition", "rejected")
	p.Sample("fft_exchange_chunks_total", float64(s.ChunksDuplicate.Load()), "disposition", "duplicate")

	p.Family("fft_exchange_retries_total", "Chunk transfer attempts beyond the first.", "counter")
	p.Sample("fft_exchange_retries_total", float64(s.Retries.Load()))

	p.Family("fft_exchange_bytes_total", "Inter-worker exchange payload bytes.", "counter")
	p.Sample("fft_exchange_bytes_total", float64(s.BytesSent.Load()), "direction", "sent")
	p.Sample("fft_exchange_bytes_total", float64(s.BytesReceived.Load()), "direction", "received")

	p.Family("fft_exchange_wait_seconds_total", "Exchange time not hidden behind the front graph's compute.", "counter")
	p.Sample("fft_exchange_wait_seconds_total", float64(s.ExchangeWaitNanos.Load())/1e9)

	p.Family("fft_exchange_gb_per_s", "Aggregate exchange throughput of the most recent job.", "gauge")
	p.Sample("fft_exchange_gb_per_s", s.LastExchangeGBs())

	p.Family("fft_shard_straggler_ratio", "Max over mean per-worker busy time of the most recent job (1 = balanced).", "gauge")
	p.Sample("fft_shard_straggler_ratio", s.StragglerRatio())

	// Per-peer accounting: copy under the lock, emit outside it.
	type peerCopy struct {
		peer string
		PeerStats
	}
	s.peersMu.Lock()
	peers := make([]peerCopy, 0, len(s.peers))
	for peer, p := range s.peers {
		peers = append(peers, peerCopy{peer: peer, PeerStats: *p})
	}
	s.peersMu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].peer < peers[j].peer })

	if len(peers) > 0 {
		p.Family("fft_exchange_peer_bytes_total", "Chunk payload bytes transferred per peer.", "counter")
		for _, pc := range peers {
			p.Sample("fft_exchange_peer_bytes_total", float64(pc.Bytes), "peer", pc.peer)
		}
		p.Family("fft_exchange_peer_chunks_total", "Chunk transfers per peer.", "counter")
		for _, pc := range peers {
			p.Sample("fft_exchange_peer_chunks_total", float64(pc.Chunks), "peer", pc.peer)
		}
		p.Family("fft_exchange_peer_retries_total", "Transfer retries attributed per peer.", "counter")
		for _, pc := range peers {
			p.Sample("fft_exchange_peer_retries_total", float64(pc.Retries), "peer", pc.peer)
		}
		p.Family("fft_exchange_chunk_latency_seconds", "Per-peer chunk transfer latency.", "histogram")
		for _, pc := range peers {
			Log2Histogram(p, "fft_exchange_chunk_latency_seconds", &pc.buckets, 1, pc.sumNs, float64(pc.Chunks), "peer", pc.peer)
		}
	}

	return p.Err()
}

// ShardDefault is the process-wide shard-tier metrics instance, mirroring
// Default for stage collectors: library code updates it, servers render
// it into /metrics.
var ShardDefault = &ShardMetrics{}

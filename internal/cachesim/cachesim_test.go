package cachesim

import "testing"

// tiny returns a small two-level hierarchy: 1 KiB 2-way L1, 4 KiB 4-way L2,
// 64 B lines.
func tiny(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New(
		LevelSpec{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
		LevelSpec{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny(t)
	h.Access(0, 8, Read)
	if s := h.Stats(0); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first access: %+v", s)
	}
	if h.DRAMReadBytes != 64 {
		t.Fatalf("DRAM read %d, want one line (64)", h.DRAMReadBytes)
	}
	h.Access(8, 8, Read) // same line
	if s := h.Stats(0); s.Hits != 1 {
		t.Fatalf("second access should hit L1: %+v", s)
	}
	if h.DRAMReadBytes != 64 {
		t.Fatal("hit should not add DRAM traffic")
	}
}

func TestAccessSpanningLines(t *testing.T) {
	h := tiny(t)
	h.Access(60, 8, Read) // crosses a 64 B boundary
	if s := h.Stats(0); s.Misses != 2 {
		t.Fatalf("expected 2 line misses, got %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny(t)
	// L1: 8 sets × 2 ways. Three lines mapping to set 0: addresses
	// 0, 8·64, 16·64.
	setStride := uint64(8 * 64)
	h.Access(0, 8, Read)
	h.Access(setStride, 8, Read)
	h.Access(2*setStride, 8, Read) // evicts line 0 from L1
	if s := h.Stats(0); s.Evictions != 1 {
		t.Fatalf("expected 1 L1 eviction, got %+v", s)
	}
	// Line 0 should still hit in L2.
	h.Access(0, 8, Read)
	if s := h.Stats(1); s.Hits != 1 {
		t.Fatalf("expected L2 hit for evicted line, got %+v", s)
	}
}

func TestDirtyWritebackReachesDRAM(t *testing.T) {
	// Single-level cache: dirty evictions must become DRAM writes.
	h, err := New(LevelSpec{Name: "L1", SizeBytes: 128, Ways: 1, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, 8, Write) // set 0, dirty
	// 2 sets → set 0 also holds address 128.
	h.Access(128, 8, Write) // evicts dirty line 0
	if h.DRAMWriteBytes != 64 {
		t.Fatalf("DRAM writes %d, want 64 (one dirty eviction)", h.DRAMWriteBytes)
	}
	h.Flush()
	if h.DRAMWriteBytes != 128 {
		t.Fatalf("after flush DRAM writes %d, want 128", h.DRAMWriteBytes)
	}
}

func TestWriteAllocateReadsLine(t *testing.T) {
	h := tiny(t)
	h.Access(0, 8, Write)
	if h.DRAMReadBytes != 64 {
		t.Fatalf("write-allocate should read the line: %d", h.DRAMReadBytes)
	}
}

// amplification is the DRAM traffic h measured over the ideal streaming
// traffic of moving elems elements once in and once out.
func amplification(h *Hierarchy, elems, elemBytes int) float64 {
	return float64(h.DRAMReadBytes+h.DRAMWriteBytes) / float64(2*elems*elemBytes)
}

func TestStridedPencilAmplification(t *testing.T) {
	// A one-pencil (μ = 1) strided sweep over a matrix much larger than
	// the cache must move far more DRAM traffic than the ideal 2·N·16
	// bytes; the same sweep on a cache-resident matrix must not, and
	// gathering four pencils per line (the baseline libraries' μ = 4)
	// must cut the out-of-cache amplification.
	h := tiny(t)                            // 4 KiB LLC
	BufferedPencilSweep(h, 256, 256, 1, 16) // 1 MiB matrix
	big := amplification(h, 256*256, 16)
	if big < 2 {
		t.Fatalf("large strided sweep amplification %.2f, want ≥ 2", big)
	}
	h2 := tiny(t)
	BufferedPencilSweep(h2, 8, 8, 1, 16) // 1 KiB matrix, cache resident
	small := amplification(h2, 8*8, 16)
	if small > 1.5 {
		t.Fatalf("cache-resident sweep amplification %.2f, want ≈ 1", small)
	}
	if big <= small {
		t.Fatal("amplification should grow out of cache")
	}
	h4 := tiny(t)
	BufferedPencilSweep(h4, 256, 256, 4, 16)
	if blocked := amplification(h4, 256*256, 16); blocked >= big {
		t.Fatalf("μ=4 sweep amplification %.2f not below μ=1's %.2f", blocked, big)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("accepted empty hierarchy")
	}
	if _, err := New(LevelSpec{SizeBytes: 0, Ways: 1, LineBytes: 64}); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := New(LevelSpec{SizeBytes: 1024, Ways: 1, LineBytes: 60}); err == nil {
		t.Error("accepted non-power-of-two line")
	}
	h := tiny(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("accepted non-positive access size")
			}
		}()
		h.Access(0, 0, Read)
	}()
}

func TestAccessKindStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind names wrong")
	}
}

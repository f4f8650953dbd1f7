package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: after Flush, a second Flush adds no DRAM traffic (no dirty
// state survives), for arbitrary access sequences.
func TestQuickFlushIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed uint32, nAcc uint8) bool {
		h, err := New(
			LevelSpec{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 64},
			LevelSpec{Name: "L2", SizeBytes: 2048, Ways: 4, LineBytes: 64},
		)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < int(nAcc); i++ {
			addr := uint64(r.Intn(1 << 14))
			kind := AccessKind(r.Intn(4))
			h.Access(addr, 1+r.Intn(16), kind)
		}
		h.Flush()
		before := h.DRAMWriteBytes
		h.Flush()
		_ = rng
		return h.DRAMWriteBytes == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every dirty byte eventually reaches DRAM — writing W distinct
// lines temporally and flushing produces exactly W lines of DRAM writes.
func TestQuickWritebackConservation(t *testing.T) {
	f := func(rawLines uint8) bool {
		lines := int(rawLines)%64 + 1
		h, err := New(LevelSpec{Name: "L1", SizeBytes: 1024, Ways: 2, LineBytes: 64})
		if err != nil {
			return false
		}
		for i := 0; i < lines; i++ {
			h.Access(uint64(i*64), 8, Write)
		}
		h.Flush()
		return h.DRAMWriteBytes == int64(lines*64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: reads never generate DRAM writes (no dirty lines exist).
func TestQuickReadsNeverWrite(t *testing.T) {
	f := func(seed uint32, nAcc uint8) bool {
		h, err := New(LevelSpec{Name: "L1", SizeBytes: 512, Ways: 1, LineBytes: 64})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < int(nAcc); i++ {
			h.Access(uint64(r.Intn(1<<13)), 8, Read)
		}
		h.Flush()
		return h.DRAMWriteBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses at L1 equals the number of line touches, for any
// temporal access pattern.
func TestQuickHitMissAccounting(t *testing.T) {
	f := func(seed uint32, nAcc uint8) bool {
		h, err := New(LevelSpec{Name: "L1", SizeBytes: 1024, Ways: 4, LineBytes: 64})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(int64(seed)))
		var touches int64
		for i := 0; i < int(nAcc); i++ {
			// Line-aligned single-line accesses for exact counting.
			h.Access(uint64(r.Intn(256))*64, 8, Read)
			touches++
		}
		s := h.Stats(0)
		return s.Hits+s.Misses == touches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Package cachesim is a trace-driven, multi-level, set-associative cache
// hierarchy simulator with write-back/write-allocate semantics and a
// two-level TLB.
//
// The paper's argument is about where bytes move: large strided FFT pencils
// conflict in the set-associative levels and evict each other's lines, so a
// non-overlapped implementation pays far more DRAM traffic than the streamed
// one (§II-D). This simulator measures that effect for the one pattern the
// figure models read, BufferedPencilSweep: per-level hits/misses/evictions,
// DRAM read/write bytes and page walks. The perfmodel package turns the
// sweep's traffic amplification into the strided-stage bandwidth of the
// baseline libraries. The cached and streaming store costs of this
// package's own executor are measured on the host, not simulated.
package cachesim

import "fmt"

// AccessKind distinguishes a load from a store.
type AccessKind int

const (
	// Read is a temporal load (fills all levels).
	Read AccessKind = iota
	// Write is a temporal store (write-allocate, marks line dirty).
	Write
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return fmt.Sprintf("access(%d)", int(k))
}

// LevelStats are the counters of one cache level.
type LevelStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // dirty evictions
}

// line is one cache line's tag state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set use stamp; higher = more recent.
	lru uint64
}

// level is one set-associative cache level.
type level struct {
	sets      int
	ways      int
	lineBytes int
	shift     uint // log2(lineBytes)
	data      []line
	clock     uint64
	stats     LevelStats
}

// Hierarchy is a complete cache hierarchy plus DRAM traffic counters.
// It is not safe for concurrent use; drive it from one goroutine.
type Hierarchy struct {
	levels []*level
	// DRAMReadBytes and DRAMWriteBytes count main-memory traffic.
	DRAMReadBytes  int64
	DRAMWriteBytes int64
	// Two-level TLB (64-entry L1, 1024-entry L2, 4 KiB pages). Every
	// access touches it; L2 TLB misses trigger page walks, whose memory
	// cost EffectiveBytes folds into the traffic totals. The paper's 2D
	// droop (§V) and much of the strided-pencil slowness are TLB
	// effects, so the model needs them measured, not assumed.
	tlbL1     *level
	tlbL2     *level
	TLBMisses int64 // L2 TLB misses (page walks)
}

// PageBytes is the simulated page size.
const PageBytes = 4096

// WalkBytes is the modeled memory cost of one page walk (a few pointer
// chases through the page-table radix tree).
const WalkBytes = 64

// New builds a hierarchy from explicit level geometry.
func New(levels ...LevelSpec) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cachesim: need at least one level")
	}
	h := &Hierarchy{}
	for _, s := range levels {
		if err := s.validate(); err != nil {
			return nil, err
		}
		sets := s.SizeBytes / (s.Ways * s.LineBytes)
		h.levels = append(h.levels, &level{
			sets:      sets,
			ways:      s.Ways,
			lineBytes: s.LineBytes,
			shift:     log2(uint(s.LineBytes)),
			data:      make([]line, sets*s.Ways),
		})
	}
	h.tlbL1 = &level{sets: 16, ways: 4, lineBytes: PageBytes,
		shift: log2(PageBytes), data: make([]line, 16*4)}
	h.tlbL2 = &level{sets: 128, ways: 8, lineBytes: PageBytes,
		shift: log2(PageBytes), data: make([]line, 128*8)}
	return h, nil
}

// LevelSpec describes one level for New.
type LevelSpec struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
}

func (s LevelSpec) validate() error {
	if s.SizeBytes <= 0 || s.Ways <= 0 || s.LineBytes <= 0 {
		return fmt.Errorf("cachesim: invalid level %q: %+v", s.Name, s)
	}
	if s.LineBytes&(s.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d not a power of two", s.LineBytes)
	}
	sets := s.SizeBytes / (s.Ways * s.LineBytes)
	if sets <= 0 || sets*s.Ways*s.LineBytes != s.SizeBytes {
		return fmt.Errorf("cachesim: level %q geometry does not tile its size", s.Name)
	}
	return nil
}

func log2(v uint) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Access simulates one access of size bytes at byte address addr. Accesses
// spanning multiple lines are split.
func (h *Hierarchy) Access(addr uint64, size int, kind AccessKind) {
	if size <= 0 {
		panic(fmt.Sprintf("cachesim: access size %d", size))
	}
	lb := uint64(h.levels[0].lineBytes)
	for size > 0 {
		lineAddr := addr &^ (lb - 1)
		chunk := int(lineAddr + lb - addr)
		if chunk > size {
			chunk = size
		}
		h.accessLine(lineAddr, kind)
		addr += uint64(chunk)
		size -= chunk
	}
}

// touchTLB performs the address translation for one line access.
func (h *Hierarchy) touchTLB(lineAddr uint64) {
	page := lineAddr &^ (PageBytes - 1)
	if h.tlbL1.probe(page, false) {
		return
	}
	if h.tlbL2.probe(page, false) {
		h.fillTLB(h.tlbL1, page)
		return
	}
	h.TLBMisses++
	h.fillTLB(h.tlbL2, page)
	h.fillTLB(h.tlbL1, page)
}

// fillTLB inserts a translation, evicting LRU (translations are never
// dirty).
func (h *Hierarchy) fillTLB(l *level, page uint64) {
	set := int((page >> l.shift) % uint64(l.sets))
	base := set * l.ways
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := 0; w < l.ways; w++ {
		ln := &l.data[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = w
		}
	}
	l.clock++
	l.data[base+victim] = line{tag: page, valid: true, lru: l.clock}
}

// EffectiveBytes returns the DRAM traffic including the memory cost of page
// walks — the denominator of the model's effective-bandwidth fractions.
func (h *Hierarchy) EffectiveBytes() int64 {
	return h.DRAMReadBytes + h.DRAMWriteBytes + h.TLBMisses*WalkBytes
}

func (h *Hierarchy) accessLine(lineAddr uint64, kind AccessKind) {
	h.touchTLB(lineAddr)
	dirty := kind == Write
	for i, l := range h.levels {
		if l.probe(lineAddr, dirty) {
			l.stats.Hits++
			// Fill upper levels on the way back.
			for j := 0; j < i; j++ {
				h.fill(j, lineAddr, dirty)
			}
			return
		}
		l.stats.Misses++
	}
	// Miss everywhere: DRAM read (write-allocate also reads the line).
	h.DRAMReadBytes += int64(h.levels[0].lineBytes)
	for j := range h.levels {
		h.fill(j, lineAddr, dirty)
	}
}

// probe looks the line up in l; on hit it refreshes LRU and ORs dirty.
func (l *level) probe(lineAddr uint64, dirty bool) bool {
	set := int((lineAddr >> l.shift) % uint64(l.sets))
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		ln := &l.data[base+w]
		if ln.valid && ln.tag == lineAddr {
			l.clock++
			ln.lru = l.clock
			if dirty {
				ln.dirty = true
			}
			return true
		}
	}
	return false
}

// fill inserts the line into level index i, evicting LRU if needed; dirty
// evictions from the last level count as DRAM writebacks.
func (h *Hierarchy) fill(i int, lineAddr uint64, dirty bool) {
	l := h.levels[i]
	set := int((lineAddr >> l.shift) % uint64(l.sets))
	base := set * l.ways
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < l.ways; w++ {
		ln := &l.data[base+w]
		if ln.valid && ln.tag == lineAddr {
			// Already present (filled via an upper-level path).
			if dirty {
				ln.dirty = true
			}
			return
		}
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = w
		}
	}
	v := &l.data[base+victim]
	if v.valid {
		l.stats.Evictions++
		if v.dirty {
			l.stats.Writebacks++
			if i == len(h.levels)-1 {
				h.DRAMWriteBytes += int64(l.lineBytes)
			} else {
				// Push the dirty line down one level.
				h.fillDirtyOnly(i+1, v.tag)
			}
		}
	}
	l.clock++
	*v = line{tag: lineAddr, valid: true, dirty: dirty, lru: l.clock}
}

// fillDirtyOnly lodges a dirty writeback into level i (or cascades further).
func (h *Hierarchy) fillDirtyOnly(i int, lineAddr uint64) {
	l := h.levels[i]
	if l.probe(lineAddr, true) {
		l.stats.Hits++
		return
	}
	l.stats.Misses++
	h.fill(i, lineAddr, true)
}

// Flush writes back every dirty line and empties the hierarchy; dirty lines
// in the last level (or cascaded) become DRAM writes. Call it at the end of
// a pattern so the measured traffic includes the data's final journey home.
// Levels flush top-down so upper-level dirty lines cascade through the
// lower levels before those are drained.
func (h *Hierarchy) Flush() {
	for i := 0; i < len(h.levels); i++ {
		l := h.levels[i]
		for j := range l.data {
			ln := &l.data[j]
			if ln.valid && ln.dirty {
				if i == len(h.levels)-1 {
					h.DRAMWriteBytes += int64(l.lineBytes)
				} else {
					h.fillDirtyOnly(i+1, ln.tag)
				}
			}
			*ln = line{}
		}
	}
}

// Stats returns the counters of level i (0 = L1).
func (h *Hierarchy) Stats(i int) LevelStats { return h.levels[i].stats }

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

package machine

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file grounds the paper's machine model in the host we actually
// run on: the store policy (internal/stagegraph) needs the real
// last-level cache size to decide when a transform's footprint spills to
// DRAM (where non-temporal stores pay off), and the plan-time μ default
// wants the cache-line geometry the paper's copy kernels are blocked
// for.

// fallbackLLCBytes is used when sysfs is unavailable (non-Linux hosts,
// sandboxes): 8 MiB, a conservative desktop-class LLC.
const fallbackLLCBytes = 8 << 20

// fallbackL2Bytes is the per-core L2 assumed when sysfs is unavailable:
// 1 MiB, the small end of server-class private L2s, so the derived
// staging-buffer default errs toward cache-resident.
const fallbackL2Bytes = 1 << 20

// fallbackL1dBytes is the per-core L1 data cache assumed when sysfs is
// unavailable: 32 KiB, the small end of current server cores.
const fallbackL1dBytes = 32 << 10

var (
	hostLLCOnce  sync.Once
	hostLLCBytes int
	hostL2Once   sync.Once
	hostL2Bytes  int
	hostL1dOnce  sync.Once
	hostL1dBytes int
)

// HostLLCBytes returns the size in bytes of the last-level cache of the
// machine this process runs on, detected from
// /sys/devices/system/cpu/cpu0/cache. The value is cached after the
// first call. When detection fails it returns a conservative 8 MiB so
// store-policy thresholds stay sane rather than degenerate.
func HostLLCBytes() int {
	hostLLCOnce.Do(func() {
		if v, ok := hostLLCBytesFrom("/sys/devices/system/cpu/cpu0/cache/index*"); ok {
			hostLLCBytes = v
			return
		}
		hostLLCBytes = fallbackLLCBytes
	})
	return hostLLCBytes
}

// HostL2Bytes returns the size in bytes of the per-core L2 cache,
// detected from the same sysfs tree as HostLLCBytes. The pipeline's
// staging buffers live in L2 between the load, compute, and store legs,
// so this bound (not the LLC) is what sizes them. Falls back to a
// conservative 1 MiB when detection fails.
func HostL2Bytes() int {
	hostL2Once.Do(func() {
		if v, ok := hostLevelBytesFrom("/sys/devices/system/cpu/cpu0/cache/index*", 2); ok {
			hostL2Bytes = v
			return
		}
		hostL2Bytes = fallbackL2Bytes
	})
	return hostL2Bytes
}

// HostL1dBytes returns the size in bytes of the per-core L1 data cache,
// detected from the same sysfs tree as HostL2Bytes. The batched 1D kernels
// size their pencils against it to choose between pencil-major and
// stage-major loop order. Falls back to 32 KiB when detection fails.
func HostL1dBytes() int {
	hostL1dOnce.Do(func() {
		if v, ok := hostLevelBytesFrom("/sys/devices/system/cpu/cpu0/cache/index*", 1); ok {
			hostL1dBytes = v
			return
		}
		hostL1dBytes = fallbackL1dBytes
	})
	return hostL1dBytes
}

// hostLevelBytesFrom scans sysfs cache index directories matching glob
// and returns the size of the largest data or unified cache at exactly the
// given level (instruction caches are skipped). Split out of HostL2Bytes
// for testing against fixture trees.
func hostLevelBytesFrom(glob string, level int) (int, bool) {
	dirs, err := filepath.Glob(glob)
	if err != nil || len(dirs) == 0 {
		return 0, false
	}
	best := 0
	for _, d := range dirs {
		lvlRaw, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		lvl, err := strconv.Atoi(strings.TrimSpace(string(lvlRaw)))
		if err != nil || lvl != level {
			continue
		}
		if typ, err := os.ReadFile(filepath.Join(d, "type")); err == nil &&
			strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sizeRaw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		if size, ok := parseCacheSize(strings.TrimSpace(string(sizeRaw))); ok && size > best {
			best = size
		}
	}
	return best, best > 0
}

// hostLLCBytesFrom scans sysfs cache index directories matching glob and
// returns the size of the highest-level cache found. Split out of
// HostLLCBytes for testing against fixture trees.
func hostLLCBytesFrom(glob string) (int, bool) {
	dirs, err := filepath.Glob(glob)
	if err != nil || len(dirs) == 0 {
		return 0, false
	}
	sort.Strings(dirs)
	bestLevel, bestSize := 0, 0
	for _, d := range dirs {
		lvlRaw, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		lvl, err := strconv.Atoi(strings.TrimSpace(string(lvlRaw)))
		if err != nil {
			continue
		}
		sizeRaw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		size, ok := parseCacheSize(strings.TrimSpace(string(sizeRaw)))
		if !ok {
			continue
		}
		// Highest level wins; among same-level entries (e.g. separate L1
		// i/d caches) keep the larger.
		if lvl > bestLevel || (lvl == bestLevel && size > bestSize) {
			bestLevel, bestSize = lvl, size
		}
	}
	if bestSize == 0 {
		return 0, false
	}
	return bestSize, true
}

// parseCacheSize parses the sysfs "size" format: "32K", "2048K", "8M".
func parseCacheSize(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1024, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1024*1024, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1024*1024*1024, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// PreferredMu returns the cache-line block size μ for a transform whose
// pencil count (rows per block, i.e. the divisibility constraint) is m.
// The paper's copy/transpose kernels move μ consecutive complex128
// elements per pencil; μ=8 spans two full 64-byte lines and measures
// ~0.95 of STREAM peak on the blocked transpose against ~0.65 for μ=4
// (see BENCH snapshots), so the largest μ dividing m wins. Explicit
// Options.Mu overrides this default; the autotuner may still pick a
// different value from measurements.
func PreferredMu(m int) int {
	for _, mu := range []int{8, 4, 2} {
		if m%mu == 0 {
			return mu
		}
	}
	return 1
}

// PreferredBufferElems returns the default per-half pipeline block size
// b in complex128 elements, derived from the host's L2. The double
// buffer keeps both halves (2·b·16 bytes) hot while the load and store
// legs stream source and destination through the same cache, so the
// staging footprint is capped at a quarter of L2: larger blocks evict
// the half being computed on and the measured transform bandwidth drops
// well before b reaches the old fixed 1<<16 default (which alone fills
// a 2 MiB L2). Clamped to [1<<12, 1<<16]: below 4Ki elems per block the
// per-block pipeline overhead dominates, and 64Ki preserves the old
// ceiling on huge-L2 hosts. Explicit Options.BufferElems overrides.
func PreferredBufferElems() int {
	limit := HostL2Bytes() / 4 / (2 * 16) // quarter of L2 over two 16-byte halves
	b := 1 << 12
	for b*2 <= limit && b < 1<<16 {
		b *= 2
	}
	return b
}

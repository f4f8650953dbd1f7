package machine

import (
	"os"
	"path/filepath"
	"testing"
)

func writeCacheIndex(t *testing.T, root, name, level, size string) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "level"), []byte(level+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "size"), []byte(size+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestHostLLCBytesFromFixture(t *testing.T) {
	root := t.TempDir()
	writeCacheIndex(t, root, "index0", "1", "32K")
	writeCacheIndex(t, root, "index1", "1", "48K")
	writeCacheIndex(t, root, "index2", "2", "2048K")
	writeCacheIndex(t, root, "index3", "3", "20M")
	got, ok := hostLLCBytesFrom(filepath.Join(root, "index*"))
	if !ok || got != 20<<20 {
		t.Fatalf("hostLLCBytesFrom = %d, %v; want %d, true", got, ok, 20<<20)
	}
}

func TestHostLLCBytesFromMissing(t *testing.T) {
	if _, ok := hostLLCBytesFrom(filepath.Join(t.TempDir(), "index*")); ok {
		t.Fatal("expected detection failure on empty tree")
	}
}

func TestHostLLCBytesNeverZero(t *testing.T) {
	if HostLLCBytes() <= 0 {
		t.Fatalf("HostLLCBytes = %d; want > 0", HostLLCBytes())
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"32K", 32 << 10, true},
		{"2048K", 2 << 20, true},
		{"8M", 8 << 20, true},
		{"1G", 1 << 30, true},
		{"123", 123, true},
		{"", 0, false},
		{"xK", 0, false},
		{"-4K", 0, false},
	}
	for _, c := range cases {
		got, ok := parseCacheSize(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseCacheSize(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestHostLevelBytesFromFixture(t *testing.T) {
	root := t.TempDir()
	writeCacheIndex(t, root, "index0", "1", "32K")
	writeCacheIndex(t, root, "index1", "1", "48K")
	writeCacheIndex(t, root, "index2", "2", "2048K")
	writeCacheIndex(t, root, "index3", "3", "20M")
	got, ok := hostLevelBytesFrom(filepath.Join(root, "index*"), 2)
	if !ok || got != 2<<20 {
		t.Fatalf("hostLevelBytesFrom(level=2) = %d, %v; want %d, true", got, ok, 2<<20)
	}
	if _, ok := hostLevelBytesFrom(filepath.Join(root, "index*"), 4); ok {
		t.Fatal("expected no level-4 cache in fixture")
	}
	if _, ok := hostLevelBytesFrom(filepath.Join(t.TempDir(), "index*"), 2); ok {
		t.Fatal("expected detection failure on empty tree")
	}
}

// A level's instruction cache does not count: the L1 data cache is the
// data or unified entry even when the instruction cache is larger.
func TestHostLevelBytesSkipsInstructionCaches(t *testing.T) {
	root := t.TempDir()
	writeCacheIndex(t, root, "index0", "1", "48K")
	writeCacheIndex(t, root, "index1", "1", "64K")
	for dir, typ := range map[string]string{"index0": "Data", "index1": "Instruction"} {
		if err := os.WriteFile(filepath.Join(root, dir, "type"), []byte(typ+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := hostLevelBytesFrom(filepath.Join(root, "index*"), 1); !ok || got != 48<<10 {
		t.Fatalf("hostLevelBytesFrom(level=1) = %d, %v; want %d, true", got, ok, 48<<10)
	}
	if HostL1dBytes() <= 0 {
		t.Fatalf("HostL1dBytes = %d; want > 0", HostL1dBytes())
	}
}

func TestPreferredBufferElems(t *testing.T) {
	b := PreferredBufferElems()
	if b < 1<<12 || b > 1<<16 {
		t.Fatalf("PreferredBufferElems = %d; want within [%d, %d]", b, 1<<12, 1<<16)
	}
	if b&(b-1) != 0 {
		t.Fatalf("PreferredBufferElems = %d; want a power of two", b)
	}
	// The derivation contract: both halves fit in a quarter of L2 (unless
	// the lower clamp is in effect on a tiny-L2 host).
	if 2*b*16 > HostL2Bytes()/4 && b > 1<<12 {
		t.Fatalf("staging footprint 2·%d·16 = %d exceeds L2/4 = %d", b, 2*b*16, HostL2Bytes()/4)
	}
}

func TestPreferredMu(t *testing.T) {
	cases := []struct{ m, want int }{
		{256, 8}, {64, 8}, {8, 8},
		{4, 4}, {12, 4}, {20, 4},
		{2, 2}, {6, 2},
		{1, 1}, {3, 1}, {7, 1},
	}
	for _, c := range cases {
		if got := PreferredMu(c.m); got != c.want {
			t.Errorf("PreferredMu(%d) = %d; want %d", c.m, got, c.want)
		}
	}
}

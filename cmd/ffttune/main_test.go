package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tune"
)

// -wisdom appends to a store it can read, starts one only where no file
// exists, and refuses — leaving the bytes on disk alone — a file LoadWisdom
// rejects.
func TestUpdateWisdom(t *testing.T) {
	dir := t.TempDir()
	a := tune.Candidate{BufferElems: 1 << 12, Mu: 4}
	b := tune.Candidate{BufferElems: 1 << 14, Mu: 8}

	load := func(path string) *tune.Wisdom {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := tune.LoadWisdom(f)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	fresh := filepath.Join(dir, "fresh.json")
	if err := updateWisdom(fresh, tune.Key(64, 64), a); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if err := updateWisdom(fresh, tune.Key(8, 8, 8), b); err != nil {
		t.Fatalf("existing file: %v", err)
	}
	w := load(fresh)
	if got, ok := w.Get(tune.Key(64, 64)); !ok || got != a {
		t.Errorf("first entry lost on the second update: %+v", w.Entries)
	}
	if got, ok := w.Get(tune.Key(8, 8, 8)); !ok || got != b {
		t.Errorf("second entry not stored: %+v", w.Entries)
	}

	for name, content := range map[string]string{
		"corrupt": `{"entries": {"2d:64:64": {"buffer_elems": 4096,`,
		"retired": `{"entries": {"2d:32:32": {"buffer_elems": 4096, "data_workers": 1, "compute_workers": 1, "mu": 4, "split_format": true}}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		err := updateWisdom(path, tune.Key(64, 64), a)
		if err == nil || !strings.Contains(err.Error(), "not updated") {
			t.Errorf("%s wisdom: got %v, want a refusal", name, err)
		}
		if after, _ := os.ReadFile(path); string(after) != content {
			t.Errorf("%s wisdom was rewritten:\n%s", name, after)
		}
	}

	// Unreadable for a reason other than absence: no silent fresh store.
	if err := updateWisdom(dir, tune.Key(64, 64), a); err == nil {
		t.Error("a directory path was accepted as a wisdom file")
	}
}

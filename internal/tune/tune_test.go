package tune

import (
	"bytes"
	"maps"
	"strings"
	"testing"
)

func smallSpace() Space {
	return Space{
		Buffers: []int{256, 512, 1024, 2048},
		Mus:     []int{4},
	}
}

func TestTune3DFindsABest(t *testing.T) {
	best, all, err := Tune([]int{16, 16, 16}, smallSpace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("tried %d candidates, want 4", len(all))
	}
	if best.Seconds <= 0 {
		t.Fatal("best has no time")
	}
	for _, r := range all {
		if r.Seconds < best.Seconds {
			t.Fatal("best is not the minimum")
		}
	}
	if best.Mu != 4 {
		t.Fatalf("unexpected μ %d", best.Mu)
	}
}

func TestTune2DFindsABest(t *testing.T) {
	best, all, err := Tune([]int{32, 32}, smallSpace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || best.Seconds <= 0 {
		t.Fatal("no results")
	}
}

func TestTuneSkipsInfeasibleMu(t *testing.T) {
	space := smallSpace()
	space.Mus = []int{4, 5} // 5 ∤ 16
	_, all, err := Tune([]int{16, 16, 16}, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.Mu == 5 {
			t.Fatal("infeasible μ was measured")
		}
	}
	// Nothing feasible at all:
	space.Mus = []int{5}
	if _, _, err := Tune([]int{16, 16, 16}, space, 1); err == nil {
		t.Fatal("expected error when no candidate is feasible")
	}
}

func TestDefaultSpace(t *testing.T) {
	s := DefaultSpace()
	if len(s.Buffers) < 2 || len(s.Mus) < 2 {
		t.Fatalf("space too small: %+v", s)
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{BufferElems: 64, Mu: 4}
	if !strings.Contains(c.String(), "b=64") || !strings.Contains(c.String(), "μ=4") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestWisdomRoundTrip(t *testing.T) {
	w := NewWisdom()
	c := Candidate{BufferElems: 1 << 14, Mu: 4}
	w.Put(Key(512, 512, 512), c)
	w.Put(Key(1024, 1024), Candidate{BufferElems: 1 << 12, Mu: 8})

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "split_format") {
		t.Fatalf("Save still writes the retired format key:\n%s", buf.String())
	}
	w2, err := LoadWisdom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := w2.Get(Key(512, 512, 512))
	if !ok || got != c {
		t.Fatalf("loaded %+v, want %+v", got, c)
	}
	if len(w2.Keys()) != 2 || w2.Keys()[0] != "2d:1024:1024" {
		t.Fatalf("Keys = %v", w2.Keys())
	}
	if _, ok := w2.Get("3d:1:1:1"); ok {
		t.Fatal("Get returned a missing key")
	}
}

func TestWisdomRejectsCorruption(t *testing.T) {
	if _, err := LoadWisdom(strings.NewReader("{not json")); err == nil {
		t.Fatal("accepted corrupt JSON")
	}
	for _, bad := range []string{
		`{"entries":{"3d:1:1:1":{"buffer_elems":0,"mu":4}}}`,
		`{"entries":{"3d:1:1:1":{"buffer_elems":64,"mu":0}}}`,
	} {
		if _, err := LoadWisdom(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted invalid candidate %s", bad)
		}
	}
	// A file written for the retired block-interleaved format names a plan
	// that no longer exists: refuse it by key rather than drop the key and
	// run something else. false (what every interleaved entry carried) and
	// absent load.
	retired := `{"entries":{"3d:8:8:8":{"buffer_elems":64,"data_workers":1,"compute_workers":1,"mu":4,"split_format":true}}}`
	if _, err := LoadWisdom(strings.NewReader(retired)); err == nil || !strings.Contains(err.Error(), `"split_format"`) {
		t.Fatalf("retired-format entry: err = %v, want one naming \"split_format\"", err)
	}
	for _, ok := range []string{
		`{"entries":{"3d:8:8:8":{"buffer_elems":64,"data_workers":1,"compute_workers":1,"mu":4,"split_format":false}}}`,
		`{"entries":{"3d:8:8:8":{"buffer_elems":64,"data_workers":1,"compute_workers":1,"mu":4}}}`,
	} {
		w, err := LoadWisdom(strings.NewReader(ok))
		if err != nil {
			t.Fatalf("%s: %v", ok, err)
		}
		if c, found := w.Get(Key(8, 8, 8)); !found || c.BufferElems != 64 {
			t.Fatalf("%s: loaded %+v", ok, c)
		}
	}
	empty, err := LoadWisdom(strings.NewReader(`{}`))
	if err != nil || empty.Entries == nil {
		t.Fatal("empty wisdom should load with a usable map")
	}
}

// Files written while the radix cap, the store tier, the store fold, the
// data/compute worker mix and the lane count were search axes still load:
// those members — valid or not — are ignored and the entry is the candidate
// the other members name. A retired-format entry is still refused, beside
// them or not.
func TestWisdomIgnoresRetiredAxes(t *testing.T) {
	want := Candidate{BufferElems: 64, Mu: 4}
	for _, extra := range []string{
		`"radix":16,"store_policy":"nt","fuse":"off"`,
		`"radix":3,"store_policy":"bogus","fuse":"sideways"`,
		`"store_policy":"bogus"`,
		`"data_workers":0,"compute_workers":-3`,
		`"lanes":-1`,
		`"lanes":2`,
	} {
		file := `{"entries":{"2d:4:4":{"buffer_elems":64,"data_workers":1,"compute_workers":1,"mu":4,` + extra + `}}}`
		w, err := LoadWisdom(strings.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", extra, err)
		}
		if got, ok := w.Get(Key(4, 4)); !ok || got != want {
			t.Fatalf("%s: loaded %+v, want %+v", extra, got, want)
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatal(err)
		}
		for _, member := range []string{"radix", "store_policy", "fuse", "workers", "lanes"} {
			if strings.Contains(buf.String(), member) {
				t.Fatalf("Save writes the retired member %q:\n%s", member, buf.String())
			}
		}
	}
	retired := `{"entries":{"2d:4:4":{"buffer_elems":64,"data_workers":1,"compute_workers":1,"mu":4,"radix":8,"split_format":true}}}`
	if _, err := LoadWisdom(strings.NewReader(retired)); err == nil {
		t.Fatal("accepted a split_format entry")
	}
}

// FuzzLoadWisdom feeds LoadWisdom the bytes of a file from outside the
// process: it must not panic, whatever it accepts must survive Save →
// LoadWisdom with equal entries, and every accepted candidate must name a
// buildable configuration (positive buffer and μ).
func FuzzLoadWisdom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := LoadWisdom(bytes.NewReader(data))
		if err != nil {
			return
		}
		for k, c := range w.Entries {
			if cfg := c.Config(); cfg.BufferElems < 1 || cfg.Mu < 1 {
				t.Fatalf("loaded entry %q names no plan: %+v", k, cfg)
			}
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatal(err)
		}
		w2, err := LoadWisdom(&buf)
		if err != nil {
			t.Fatalf("saved store does not load: %v\n%s", err, buf.String())
		}
		if !maps.Equal(w.Entries, w2.Entries) {
			t.Fatalf("entries changed across Save/LoadWisdom:\n%v\n%v", w.Entries, w2.Entries)
		}
	})
}

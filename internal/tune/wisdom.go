package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Wisdom persists tuned candidates per transform shape, in the spirit of
// FFTW's wisdom files. Keys are produced by Key.
type Wisdom struct {
	Entries map[string]Candidate `json:"entries"`
}

// NewWisdom returns an empty store.
func NewWisdom() *Wisdom {
	return &Wisdom{Entries: make(map[string]Candidate)}
}

// Key returns the wisdom key for a transform of shape dims: "2d:n:m" or
// "3d:k:n:m".
func Key(dims ...int) string {
	key := fmt.Sprintf("%dd", len(dims))
	for _, d := range dims {
		key += fmt.Sprintf(":%d", d)
	}
	return key
}

// Put stores a candidate under key.
func (w *Wisdom) Put(key string, c Candidate) { w.Entries[key] = c }

// Get returns the stored candidate and whether one exists.
func (w *Wisdom) Get(key string) (Candidate, bool) {
	c, ok := w.Entries[key]
	return c, ok
}

// Keys returns the stored keys sorted.
func (w *Wisdom) Keys() []string {
	keys := make([]string, 0, len(w.Entries))
	for k := range w.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Save writes the store as JSON.
func (w *Wisdom) Save(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// LoadWisdom reads a store written by Save. Entries are validated: a
// malformed candidate (non-positive buffer or μ) is rejected, and so is one recorded for the retired block-interleaved compute format
// ("split_format": true, written by versions up to commit f193575) —
// dropping the key silently would run a different plan than the file
// describes. The members of the retired radix, store-tier, fold, worker and
// lane axes name no plan difference any more and are ignored, whatever they
// hold.
func LoadWisdom(in io.Reader) (*Wisdom, error) {
	var file struct {
		Entries map[string]struct {
			Candidate
			Retired bool `json:"split_format"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(in).Decode(&file); err != nil {
		return nil, fmt.Errorf("tune: corrupt wisdom: %w", err)
	}
	w := Wisdom{Entries: make(map[string]Candidate, len(file.Entries))}
	for k, e := range file.Entries {
		if e.Retired {
			return nil, fmt.Errorf("tune: wisdom entry %q sets \"split_format\": the block-interleaved format was retired; re-tune this shape", k)
		}
		c := e.Candidate
		w.Entries[k] = c
		if c.BufferElems < 1 || c.Mu < 1 {
			return nil, fmt.Errorf("tune: wisdom entry %q invalid: %+v", k, c)
		}
	}
	return &w, nil
}

package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a process-wide directory of live collectors, keyed by a
// human-readable plan label ("fft3d/64x64x64"). Plans register at build
// time and unregister on Close; the fftserved /metrics exposition walks it
// to emit per-plan, per-stage series without holding references to the plans
// themselves.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*Collector
}

// Default is the registry every plan registers with.
var Default = &Registry{}

// Register adds a collector under name, suffixing "#2", "#3", … when the
// name is already taken (several live plans may share a shape). It returns
// the final label and an unregister func; both are nil-collector safe.
func (r *Registry) Register(name string, c *Collector) (string, func()) {
	if c == nil {
		return name, func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]*Collector)
	}
	label := name
	for i := 2; ; i++ {
		if _, taken := r.entries[label]; !taken {
			break
		}
		label = fmt.Sprintf("%s#%d", name, i)
	}
	r.entries[label] = c
	return label, func() {
		r.mu.Lock()
		delete(r.entries, label)
		r.mu.Unlock()
	}
}

// Labels returns the registered plan labels, sorted.
func (r *Registry) Labels() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for l := range r.entries {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Snapshots returns every registered collector's snapshot keyed by label,
// in sorted label order.
func (r *Registry) Snapshots() []LabeledSnapshot {
	r.mu.Lock()
	type ent struct {
		label string
		c     *Collector
	}
	ents := make([]ent, 0, len(r.entries))
	for l, c := range r.entries {
		ents = append(ents, ent{l, c})
	}
	r.mu.Unlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].label < ents[j].label })
	out := make([]LabeledSnapshot, len(ents))
	for i, e := range ents {
		out[i] = LabeledSnapshot{Label: e.label, Snapshot: e.c.Snapshot()}
	}
	return out
}

// LabeledSnapshot pairs a registry label with its collector's snapshot.
type LabeledSnapshot struct {
	Label string
	Snapshot
}

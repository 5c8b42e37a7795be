package arrange

import "sync"

// Key identifies an arrangement within a Registry: the shared-class key it
// belongs to, the stream whose tuples it stores, and the parallel shard
// that owns it (-1 for the sequential engine or a parallel front).
type Key struct {
	Class  string
	Stream string
	Shard  int
}

// Registry tracks every live arrangement in an engine so metrics and
// introspection can enumerate them. Creation is keyed: asking for the same
// Key twice returns the same arrangement.
type Registry struct {
	mu   sync.Mutex
	arrs map[Key]*Arrangement
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{arrs: make(map[Key]*Arrangement)}
}

// GetOrCreate returns the arrangement for k, creating it with opts on first
// use.
func (r *Registry) GetOrCreate(k Key, opts Options) *Arrangement {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.arrs[k]; ok {
		return a
	}
	a := New(opts)
	r.arrs[k] = a
	return a
}

// Drop removes every arrangement registered under the given class key,
// called when its shared class closes.
func (r *Registry) Drop(class string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.arrs {
		if k.Class == class {
			delete(r.arrs, k)
		}
	}
}

// Each calls fn for every registered arrangement. The callback must not
// call back into the registry.
func (r *Registry) Each(fn func(Key, *Arrangement)) {
	r.mu.Lock()
	keys := make([]Key, 0, len(r.arrs))
	for k := range r.arrs {
		keys = append(keys, k)
	}
	arrs := make([]*Arrangement, len(keys))
	for i, k := range keys {
		arrs[i] = r.arrs[k]
	}
	r.mu.Unlock()
	for i, k := range keys {
		fn(k, arrs[i])
	}
}

// Totals sums stats across every registered arrangement: the engine-level
// tcq_arrangement_* metric values.
type Totals struct {
	Count, Readers int
	MaxLag         uint64 // the largest cursor lag
	Bytes          int64  // memory held (Stats.Bytes)
	ReclaimedBytes int64
}

// Totals aggregates stats across all registered arrangements.
func (r *Registry) Totals() Totals {
	var t Totals
	r.Each(func(_ Key, a *Arrangement) {
		st := a.Stats()
		t.Count++
		t.Readers += st.Readers
		t.MaxLag = max(t.MaxLag, st.Lag)
		t.Bytes += st.Bytes
		t.ReclaimedBytes += st.ReclaimedBytes
	})
	return t
}

package tuple

import (
	"sync"
	"sync/atomic"
)

// Pool is a sync.Pool-backed tuple recycler amortizing the dominant
// allocation of the hot path: one Tuple header plus one Vals slice per
// tuple per hop. Ingress draws subscriber clones and widened rows from a
// pool; the eddy returns tuples to it at the points where a tuple is
// provably dead (dropped by a selection with no SteM retaining it).
//
// Ownership discipline: Put hands the tuple's memory back to the pool —
// the caller must hold the only live reference. Tuples that may still be
// referenced elsewhere (a client that kept a result, sampled traces) must
// never be recycled; the wiring in internal/eddy and internal/core gates every
// Put on those conditions. Value contents are
// plain structs (string headers share immutable data), so reusing a Vals
// slice never mutates values previously copied out of it.
type Pool struct {
	p sync.Pool
	// core is a bounded freelist in front of the sync.Pool. sync.Pool is
	// emptied by every garbage collection, and in steady state the
	// collector still runs (join matches, index growth), so a purely
	// sync.Pool-backed recycler pays a burst of misses after each cycle. The core list holds strong references the collector never
	// reclaims; its fixed depth bounds the retained memory, and overflow
	// spills to the sync.Pool, which still absorbs transient bursts.
	mu    sync.Mutex
	core  []*Tuple
	gets  atomic.Int64
	hits  atomic.Int64
	puts  atomic.Int64
	drops atomic.Int64 // Put calls rejected (nil or oversized)
}

// maxPooledWidth bounds the Vals capacity kept in the pool so one huge
// wide row cannot pin memory for the lifetime of the pool.
const maxPooledWidth = 256

// coreDepth is the GC-stable freelist size: deep enough to cover the
// in-flight window between ingress clones and executor recycling — a
// FeedMany clones up to 64 tuples before pushing them, on top of the 256
// tuples each query input pipe can hold — small enough that a fully
// retained core of hot-path-sized rows stays near a megabyte.
const coreDepth = 4096

// NewPool creates an empty recycler.
func NewPool() *Pool {
	return &Pool{p: sync.Pool{New: func() any { return new(Tuple) }}}
}

// Get returns a zeroed tuple with Vals of length width: the one-tuple case
// of take. The tuple may reuse memory from a previous Put; every field is
// reset before return.
//
//tcq:hotpath
func (p *Pool) Get(width int) *Tuple {
	var one [1]*Tuple
	p.take(one[:], nil, width)
	return one[0]
}

// CloneMany sets dst[i] to a deep copy of src[i], as CloneUsing would, for
// every i below len(src); dst must be at least as long. A run's copies
// cost one lock and one update of each counter, however many there are.
func (p *Pool) CloneMany(dst, src []*Tuple) {
	p.take(dst[:len(src)], src, 0)
	for i, s := range src {
		if s.Queries != nil {
			dst[i].Queries = s.Queries.Clone()
		}
	}
}

// take is the pool's one take path. It fills dst with tuples drawn under one
// lock: a copy of src[i] in dst[i] when src is non-nil, lineage aside, else
// a zeroed tuple of width values.
//
//tcq:hotpath
func (p *Pool) take(dst, src []*Tuple, width int) {
	p.mu.Lock()
	n := len(p.core)
	got := min(n, len(dst))
	for i := range got {
		dst[i], p.core[n-1-i] = p.core[n-1-i], nil
	}
	p.core = p.core[:n-got]
	p.mu.Unlock()
	hits := 0
	for i, t := range dst {
		if i >= got {
			t = p.p.Get().(*Tuple)
			dst[i] = t
		}
		w := width
		if src != nil {
			w = len(src[i].Vals)
		}
		if cap(t.Vals) >= w {
			hits++
			t.Vals = t.Vals[:w]
		} else {
			// Round the capacity up to a small slab so a recycled narrow
			// clone can serve a later, slightly wider request: ingress
			// alternates narrow subscriber clones with wide rows, and exact
			// sizing would make every other take a miss.
			//lint:ignore alloccheck pool miss path: one slab per recycled tuple, amortized by the core freelist hit rate; core.TestJoinSteadyStateAllocs bounds the sum
			t.Vals = make([]Value, w, (w+3)&^3)
		}
		if src == nil {
			clear(t.Vals)
			t.TS, t.Seq, t.Source, t.Done, t.Queries = 0, 0, 0, 0, nil
			continue
		}
		s := src[i]
		copy(t.Vals, s.Vals)
		t.TS, t.Seq, t.Source, t.Done, t.Queries = s.TS, s.Seq, s.Source, s.Done, nil
	}
	p.gets.Add(int64(len(dst)))
	p.hits.Add(int64(hits))
}

// Put returns a dead tuple to the pool. Oversized tuples are dropped so
// the pool retains only hot-path-sized rows. The lineage bitmap is dropped
// to the garbage collector rather than pooled: across the pool's users its
// size varies with each class's standing-query population. A shared CACQ
// class, where the size is uniform, takes the bitmap off the tuple and
// reuses it itself before calling Put.
//
//tcq:hotpath
func (p *Pool) Put(t *Tuple) {
	if t == nil || cap(t.Vals) > maxPooledWidth {
		p.drops.Add(1)
		return
	}
	t.Queries = nil
	p.puts.Add(1)
	p.mu.Lock()
	if len(p.core) < coreDepth {
		p.core = append(p.core, t)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.p.Put(t)
}

// PoolStats counts pool traffic: Gets and the subset that reused pooled
// Vals memory (Hits), Puts accepted, and Puts rejected (Drops).
type PoolStats struct {
	Gets, Hits, Puts, Drops int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:  p.gets.Load(),
		Hits:  p.hits.Load(),
		Puts:  p.puts.Load(),
		Drops: p.drops.Load(),
	}
}

// CloneUsing deep-copies the tuple like Clone, drawing the copy's memory
// from pool when non-nil: the one-tuple case of Pool.CloneMany.
func (t *Tuple) CloneUsing(pool *Pool) *Tuple {
	if pool == nil {
		return t.Clone()
	}
	var one [1]*Tuple
	src := [1]*Tuple{t}
	pool.CloneMany(one[:], src[:])
	return one[0]
}

// WidenUsing is Widen drawing the wide row from pool when non-nil.
func (l *Layout) WidenUsing(pool *Pool, s int, base *Tuple) *Tuple {
	if pool == nil {
		return l.Widen(s, base)
	}
	out := pool.Get(l.Width())
	out.TS, out.Seq, out.Source = base.TS, base.Seq, SingleSource(s)
	copy(out.Vals[l.Offsets[s]:], base.Vals)
	if base.Queries != nil {
		out.Queries = base.Queries.Clone()
	}
	return out
}

// MergeUsing is Merge drawing the output row from pool when non-nil.
func (l *Layout) MergeUsing(pool *Pool, a, b *Tuple) *Tuple {
	if pool == nil {
		return l.Merge(a, b)
	}
	return l.mergeInto(pool.Get(l.Width()), a, b)
}

// Package arrange implements arrangements (PAPERS.md, McSherry et al.): the
// one row store behind every SteM. An Arrangement is the storage half of a
// SteM — a hash index on the join column plus the time-ordered (or
// insertion-ordered) tuple store — owned by exactly ONE writer, the engine
// that builds it, and readable by any number of concurrent cursors. A private
// join is the one-reader case: its SteM owns an arrangement nobody else can
// reach, with no cursor, and pays an uncontended lock per call.
//
// The writer applies inserts and window evictions in epoch batches: every
// mutation lands in the current epoch, and Advance seals it. While cursors
// are open, evicted tuples are not freed immediately — a reader holding a
// cursor at an older epoch may still be probing state that referenced them —
// but parked on a retired list tagged with the eviction epoch. Only when
// every open cursor has synced past that epoch are the tuples reclaimed
// (returned to the tuple pool). This is the classic epoch-based reclamation
// discipline: frees are deferred until all cursors pass. With no cursor open
// there is nobody to wait for and evictions free at once.
//
// Registering the 10,000th query against an arrangement therefore costs one
// reader handle — an index entry — instead of a copy of the state: queries
// attach a Handle to a Cursor, probe the shared index through it, and
// detach on removal.
package arrange

import (
	"sync"
	"unsafe"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Options configures an Arrangement.
type Options struct {
	// Name labels the arrangement (typically "<stream>" or
	// "<stream>.<col>") in stats and introspection rows.
	Name string
	// KeyCol is the wide-row column the hash index is built on; -1
	// disables indexing (Lookup degenerates to Scan).
	KeyCol int
	// Windowed orders stored tuples by the given notion of time and
	// enables Evict.
	Windowed bool
	TimeKind window.TimeKind
	// Recycler, when set, receives reclaimed tuples once every cursor has
	// passed their eviction epoch.
	Recycler *tuple.Pool
}

// retiredBatch is one eviction's worth of tuples awaiting reclamation,
// tagged with the epoch current when they were evicted.
type retiredBatch struct {
	epoch uint64
	ts    []*tuple.Tuple
}

// Arrangement is a shared, multi-reader tuple store with epoch-based
// reclamation. All methods are safe for concurrent use, under a
// single-writer discipline: exactly one goroutine calls the mutating
// methods (Insert, Evict, Advance, ScrubLineage), while any number
// concurrently call the reading methods (Lookup, Scan, Handle.Probe,
// Stats).
type Arrangement struct {
	opts Options

	mu    sync.RWMutex
	index map[uint64][]*tuple.Tuple
	all   *window.Buffer // when Windowed
	inseq []*tuple.Tuple // otherwise

	epoch   uint64
	retired []retiredBatch

	cursors    map[int]*Cursor
	nextCursor int
	readers    int // open handles across all cursors

	inserts    int64
	evicted    int64
	reclaimedN int64
	reclaimedB int64
	maxReaders int
}

// New creates an empty arrangement.
func New(opts Options) *Arrangement {
	a := &Arrangement{opts: opts, cursors: make(map[int]*Cursor)}
	if opts.KeyCol >= 0 {
		a.index = make(map[uint64][]*tuple.Tuple)
	}
	if opts.Windowed {
		a.all = window.NewBuffer(opts.TimeKind)
	}
	return a
}

// Name returns the arrangement's label.
func (a *Arrangement) Name() string { return a.opts.Name }

// Insert adds a batch of tuples to the current epoch. Writer-only.
func (a *Arrangement) Insert(ts []*tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inserts += int64(len(ts))
	if a.index != nil {
		for _, t := range ts {
			h := t.Vals[a.opts.KeyCol].Hash()
			a.index[h] = append(a.index[h], t)
		}
	}
	if a.all != nil {
		a.all.AddBatch(ts)
	} else {
		a.inseq = append(a.inseq, ts...)
	}
}

// Rows is an arrangement held read-locked: the view Read passes to its
// callback. The slices it returns alias the store; neither they nor the
// Rows may outlive the callback (merge-copy matches instead).
type Rows struct{ a *Arrangement }

// Read calls fn with the arrangement read-locked once for the whole call,
// so a probe batch pays one lock however many keys it looks up. Safe to call
// concurrently with other readers.
func (a *Arrangement) Read(fn func(Rows)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	fn(Rows{a})
}

// Bucket returns the stored tuples whose key column hashes to hash, in
// insertion order (every stored tuple when the arrangement is unindexed).
func (r Rows) Bucket(hash uint64) []*tuple.Tuple {
	if r.a.index == nil {
		return r.All()
	}
	return r.a.index[hash]
}

// All returns every stored tuple in time/insertion order.
func (r Rows) All() []*tuple.Tuple {
	if r.a.all != nil {
		return r.a.all.Range(-1<<62, 1<<62)
	}
	return r.a.inseq
}

// Lookup calls emit for every tuple of Bucket(hash), under one Read.
func (a *Arrangement) Lookup(hash uint64, emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) {
		for _, t := range r.Bucket(hash) {
			emit(t)
		}
	})
}

// Scan calls emit for every stored tuple in time/insertion order.
func (a *Arrangement) Scan(emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) {
		for _, t := range r.All() {
			emit(t)
		}
	})
}

// Len returns the number of stored (live, non-retired) tuples.
func (a *Arrangement) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.lenLocked()
}

func (a *Arrangement) lenLocked() int {
	if a.all != nil {
		return a.all.Len()
	}
	return len(a.inseq)
}

// Evict removes stored tuples with window time strictly below watermark.
// While any cursor is open they are parked on the retired list of the
// current epoch and freed only once every open cursor has synced past it;
// with none open they are freed here. Writer-only. Returns the number
// evicted. Only valid on windowed arrangements (no-op otherwise).
func (a *Arrangement) Evict(watermark int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.all == nil {
		return 0
	}
	old := a.all.Range(-1<<62, watermark-1)
	if len(old) == 0 {
		return 0
	}
	if len(a.cursors) == 0 && a.opts.Recycler == nil {
		// Nobody to wait for and no pool to feed: count them and let the
		// buffer's shift below hand them to the collector.
		a.free(old)
	} else {
		// old aliases the buffer, which the shift overwrites.
		parked := make([]*tuple.Tuple, len(old))
		copy(parked, old)
		a.retired = append(a.retired, retiredBatch{epoch: a.epoch, ts: parked})
	}
	n := a.all.Evict(watermark)
	a.evicted += int64(n)
	if a.index != nil {
		a.index = make(map[uint64][]*tuple.Tuple, a.all.Len())
		for _, t := range a.all.Range(-1<<62, 1<<62) {
			h := t.Vals[a.opts.KeyCol].Hash()
			a.index[h] = append(a.index[h], t)
		}
	}
	a.reclaimLocked()
	return n
}

// Advance seals the current epoch: mutations so far belong to it, and
// subsequent ones land in the next. Writer-only; typically called once per
// engine step.
func (a *Arrangement) Advance() {
	a.mu.Lock()
	a.epoch++
	a.reclaimLocked()
	a.mu.Unlock()
}

// ScrubLineage clears the lineage bits in mask from every stored tuple —
// the deferred half of freeing a query's lineage slot: after its removal
// the slot may only be reused once no stored tuple still carries the dead
// query's bit. Writer-only.
func (a *Arrangement) ScrubLineage(mask tuple.Bitset) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range (Rows{a}).All() {
		for i := range mask {
			if i < len(t.Queries) {
				t.Queries[i] &^= mask[i]
			}
		}
	}
}

// reclaimLocked frees retired batches every open cursor has passed. With no
// open cursors everything retired is reclaimable, the current epoch's
// evictions included.
func (a *Arrangement) reclaimLocked() {
	if len(a.retired) == 0 {
		return
	}
	min := a.epoch + 1
	for _, c := range a.cursors {
		if c.at < min {
			min = c.at
		}
	}
	kept := a.retired[:0]
	for _, rb := range a.retired {
		if rb.epoch >= min {
			kept = append(kept, rb)
			continue
		}
		a.free(rb.ts)
	}
	// Clear the tail so freed batches become collectable.
	for i := len(kept); i < len(a.retired); i++ {
		a.retired[i] = retiredBatch{}
	}
	a.retired = kept
}

// free counts ts as reclaimed and hands them to the recycler, if any.
func (a *Arrangement) free(ts []*tuple.Tuple) {
	for _, t := range ts {
		a.reclaimedN++
		a.reclaimedB += tupleBytes(t)
		if a.opts.Recycler != nil {
			a.opts.Recycler.Put(t)
		}
	}
}

// tupleBytes estimates a tuple's resident size: the struct, its value
// slice, and its lineage bitmap, sized from the types themselves. An
// estimate is enough — the metric tracks reclamation volume, not exact heap
// accounting (slice capacity and allocator rounding are not counted).
func tupleBytes(t *tuple.Tuple) int64 {
	const (
		structBytes = int64(unsafe.Sizeof(tuple.Tuple{}))
		valueBytes  = int64(unsafe.Sizeof(tuple.Value{}))
		wordBytes   = int64(unsafe.Sizeof(uint64(0)))
	)
	return structBytes + valueBytes*int64(len(t.Vals)) + wordBytes*int64(len(t.Queries))
}

// Cursor tracks one reader group's progress through the arrangement's
// epochs. A cursor at epoch E has observed every mutation sealed before E;
// retired batches of epochs >= E stay un-freed while it is open. Queries
// sharing an execution engine share one cursor (the engine advances it once
// per step for all of them); each query still holds its own Handle.
type Cursor struct {
	a  *Arrangement
	id int
	at uint64
}

// NewCursor opens a cursor at the current epoch.
func (a *Arrangement) NewCursor() *Cursor {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &Cursor{a: a, id: a.nextCursor, at: a.epoch}
	a.nextCursor++
	a.cursors[c.id] = c
	return c
}

// Sync advances the cursor to the current epoch and reclaims any retired
// batches every cursor has now passed.
func (c *Cursor) Sync() {
	a := c.a
	a.mu.Lock()
	c.at = a.epoch
	a.reclaimLocked()
	a.mu.Unlock()
}

// Close removes the cursor; its handles must already be closed. Retired
// state it was holding back becomes reclaimable.
func (c *Cursor) Close() {
	a := c.a
	a.mu.Lock()
	delete(a.cursors, c.id)
	a.reclaimLocked()
	a.mu.Unlock()
}

// Attach registers one reader on the cursor and returns its handle. This is
// what a standing query costs: an entry in the reader count, not a copy of
// the state.
func (c *Cursor) Attach() *Handle {
	a := c.a
	a.mu.Lock()
	a.readers++
	if a.readers > a.maxReaders {
		a.maxReaders = a.readers
	}
	a.mu.Unlock()
	return &Handle{c: c}
}

// Handle is one reader's registration: a lightweight capability to probe
// the shared state through its cursor.
type Handle struct {
	c      *Cursor
	closed bool
}

// Probe looks up candidates by key hash through the handle's cursor.
func (h *Handle) Probe(hash uint64, emit func(*tuple.Tuple)) {
	h.c.a.Lookup(hash, emit)
}

// Scan visits all stored tuples through the handle's cursor.
func (h *Handle) Scan(emit func(*tuple.Tuple)) { h.c.a.Scan(emit) }

// Close detaches the reader. Idempotent.
func (h *Handle) Close() {
	if h.closed {
		return
	}
	h.closed = true
	a := h.c.a
	a.mu.Lock()
	a.readers--
	a.mu.Unlock()
}

// Stats is a point-in-time snapshot of arrangement state and reclamation
// counters.
type Stats struct {
	Epoch     uint64
	MinCursor uint64 // oldest open cursor's epoch (== Epoch when none)
	Lag       uint64 // Epoch - MinCursor
	Readers   int    // open handles
	Cursors   int    // open cursors
	Size      int    // live stored tuples
	Retired   int    // evicted tuples awaiting reclamation

	Inserts         int64
	Evicted         int64
	ReclaimedTuples int64
	ReclaimedBytes  int64
	MaxReaders      int
}

// Stats returns a snapshot.
func (a *Arrangement) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := Stats{
		Epoch:           a.epoch,
		MinCursor:       a.epoch,
		Readers:         a.readers,
		Cursors:         len(a.cursors),
		Inserts:         a.inserts,
		Evicted:         a.evicted,
		ReclaimedTuples: a.reclaimedN,
		ReclaimedBytes:  a.reclaimedB,
		MaxReaders:      a.maxReaders,
	}
	st.Size = a.lenLocked()
	for _, c := range a.cursors {
		if c.at < st.MinCursor {
			st.MinCursor = c.at
		}
	}
	st.Lag = st.Epoch - st.MinCursor
	for _, rb := range a.retired {
		st.Retired += len(rb.ts)
	}
	return st
}

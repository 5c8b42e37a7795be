// Package arrange implements arrangements (PAPERS.md, McSherry et al.): the
// one row store behind every SteM. An Arrangement is the storage half of a
// SteM — a hash index on the join column plus the time-ordered (or
// insertion-ordered) row store — owned by the engine whose SteM writes it.
// It is safe for one writer and any number of concurrent readers, and pays
// an uncontended lock per call when, as in a sequential class, the writer
// is its only reader.
//
// An arrangement keeps values, not rows. Each inserted row is encoded into a
// storage.Log, its first chunk 4 KiB, under a pointer-free index: a map from
// key hash to a row number, per-row links in one flat slice, and each row's
// lineage an id into a small table of interned bitmaps. Nothing a reader sees escapes a Read: a visitor
// decodes each row it wants into memory of its own. So no reader ever holds
// a stored row, the caller's row is free the moment Insert returns, and Evict
// frees what it drops at once.
package arrange

import (
	"slices"
	"sort"
	"sync"
	"unsafe"

	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Options configures an Arrangement.
type Options struct {
	// Name labels the arrangement (typically "<stream>" or
	// "<stream>.<col>") in stats and introspection rows.
	Name string
	// KeyCol is the column of an inserted row the hash index is built on;
	// -1 disables indexing (Bucket visits every row).
	KeyCol int
	// Windowed orders stored rows by the given notion of time and enables
	// Evict.
	Windowed bool
	TimeKind window.TimeKind
	// Borrowed, when set, reports whether a row's lineage bitmap is one its
	// writer never writes or recycles (a CACQ lineage template): the
	// arrangement then keeps that bitmap itself, so a probe carrying the
	// same one merges without copying it (tuple.Bitset.Same). Every other
	// bitmap is copied. Called under the arrangement's lock.
	Borrowed func(tuple.Bitset) bool
}

// ref locates one stored row: where it starts in the log, the next row of
// its index bucket, and its lineage id. A bucket is a ring in arrival order:
// the index names its newest row, whose next is the oldest.
type ref struct {
	at      storage.Loc
	next    int32
	lineage int32
}

// Arrangement is a row store. All methods are safe for concurrent use,
// under a single-writer discipline: exactly one goroutine calls the mutating
// methods (Insert, Evict, ScrubLineage), while any number concurrently call
// the reading methods (Read, Len, Stats).
type Arrangement struct {
	opts Options

	mu    sync.RWMutex
	log   storage.Log // stored rows, in arrival order
	refs  []ref       // by row number, the rows' order in the log
	index map[uint64]int32
	// order lists the rows in window-time order, ties in arrival order, once
	// a row has arrived out of time order; nil while arrival order is time
	// order. lastKey is the window time of the last row in time order.
	order   []int32
	lastKey int64
	lin     lineages
	remap   []int32 // Evict's scratch: each row's number after it
	ring    []int32 // Evict's scratch: one bucket's survivors

	inserts    int64
	evicted    int64 // rows; every one is freed at once
	reclaimedB int64
}

// New creates an empty arrangement, holding no chunk until its first Insert.
func New(opts Options) *Arrangement {
	a := &Arrangement{opts: opts, log: *storage.NewLog(4 << 10)}
	if opts.KeyCol >= 0 {
		a.index = make(map[uint64]int32)
	}
	a.lin.init()
	return a
}

// Name returns the arrangement's label.
func (a *Arrangement) Name() string { return a.opts.Name }

// Insert encodes a batch of rows, lineage included, keeping no pointer into
// them: the caller may reuse them when Insert returns. Writer-only.
func (a *Arrangement) Insert(ts []*tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inserts += int64(len(ts))
	for _, t := range ts {
		a.insertLocked(t)
	}
}

func (a *Arrangement) insertLocked(t *tuple.Tuple) {
	i := int32(len(a.refs))
	r := ref{at: a.log.Append(t), next: i, lineage: a.lin.intern(t.Queries, a.opts.Borrowed)}
	if a.index != nil {
		h := t.Vals[a.opts.KeyCol].Hash()
		if tail, ok := a.index[h]; ok {
			r.next = a.refs[tail].next
			a.refs[tail].next = i
		}
		a.index[h] = i
	}
	a.refs = append(a.refs, r)
	if a.opts.Windowed {
		a.place(i, a.timeOf(t.Seq, t.TS))
	}
}

// timeOf is a row's window time.
func (a *Arrangement) timeOf(seq, ts int64) int64 {
	if a.opts.TimeKind == window.Logical {
		return seq
	}
	return ts
}

// rowTime decodes stored row i's window time.
func (a *Arrangement) rowTime(i int32) int64 {
	return a.timeOf(storage.ReadStamp(a.log.Row(a.refs[i].at)))
}

// place records row i, of window time k, in time order: arrival order while
// rows arrive in order, an explicit order from the first one that does not.
// A row goes after every stored row of its time.
func (a *Arrangement) place(i int32, k int64) {
	if i == 0 || k >= a.lastKey {
		a.lastKey = k
		if a.order != nil {
			a.order = append(a.order, i)
		}
		return
	}
	if a.order == nil {
		a.order = make([]int32, i, 2*i+1)
		for j := range a.order {
			a.order[j] = int32(j)
		}
	}
	at := sort.Search(len(a.order), func(j int) bool { return a.rowTime(a.order[j]) > k })
	a.order = slices.Insert(a.order, at, i)
}

// Rows is an arrangement held read-locked: the view Read passes to its
// callback. Neither it nor any Row it visits may outlive the callback.
type Rows struct{ a *Arrangement }

// Row is one stored row as a Read sees it, valid only inside the visitor
// it was passed to.
type Row struct {
	buf     []byte
	lineage tuple.Bitset
}

// Decode writes the row into t: its Seq and TS, its lineage as t.Queries —
// the arrangement's bitmap, which t must neither write nor keep past the
// Read — and its values appended to vals, which t.Vals then is
// (storage.ReadRow). It returns vals extended. Only a string value
// allocates, and vals only when it lacks room.
func (r Row) Decode(t *tuple.Tuple, vals []tuple.Value) []tuple.Value {
	vals, _, err := storage.ReadRow(r.buf, t, vals)
	if err != nil {
		panic("arrange: stored row: " + err.Error())
	}
	t.Queries = r.lineage
	return vals
}

// Read calls fn with the arrangement read-locked once for the whole call,
// so a probe batch pays one lock however many keys it looks up. Safe to call
// concurrently with other readers.
func (a *Arrangement) Read(fn func(Rows)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	fn(Rows{a})
}

func (r Rows) row(i int32) Row {
	ref := r.a.refs[i]
	return Row{buf: r.a.log.Row(ref.at), lineage: r.a.lin.sets[ref.lineage]}
}

// Bucket calls visit with every stored row whose key column hashes to hash,
// in arrival order (every stored row, as All visits them, when the
// arrangement is unindexed).
func (r Rows) Bucket(hash uint64, visit func(Row)) {
	a := r.a
	if a.index == nil {
		r.All(visit)
		return
	}
	tail, ok := a.index[hash]
	if !ok {
		return
	}
	for i := a.refs[tail].next; ; i = a.refs[i].next {
		visit(r.row(i))
		if i == tail {
			return
		}
	}
}

// All calls visit with every stored row in window-time order, ties in
// arrival order (arrival order when the arrangement is not windowed).
func (r Rows) All(visit func(Row)) {
	if r.a.order != nil {
		for _, i := range r.a.order {
			visit(r.row(i))
		}
		return
	}
	for i := range r.a.refs {
		visit(r.row(int32(i)))
	}
}

// Len returns the number of stored rows.
func (a *Arrangement) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.refs)
}

// Evict drops the stored rows with window time strictly below watermark and
// frees them at once: the index is relinked over the survivors, which then
// move down over the dropped rows in the log (storage.Log.Compact).
// Writer-only. Returns the number evicted. Only valid on windowed
// arrangements (no-op otherwise).
func (a *Arrangement) Evict(watermark int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.opts.Windowed || len(a.refs) == 0 {
		return 0
	}
	at := func(j int) int32 { // the row at j in time order
		if a.order == nil {
			return int32(j)
		}
		return a.order[j]
	}
	// The rows below the watermark are a prefix of time order.
	n := len(a.refs)
	k := sort.Search(n, func(j int) bool { return a.rowTime(at(j)) >= watermark })
	if k == 0 {
		return 0
	}
	// remap[i] is row i's number after the eviction, or -1.
	a.remap = slices.Grow(a.remap[:0], n)[:n]
	remap := a.remap
	clear(remap)
	for j := 0; j < k; j++ {
		remap[at(j)] = -1
	}
	live := int32(0)
	for i, to := range remap {
		if to == 0 {
			remap[i] = live
			live++
		}
	}
	if a.index != nil {
		a.relink(remap)
	}
	a.reclaimedB += int64(a.log.Compact(func(i int) bool { return remap[i] >= 0 }, func(i int, at storage.Loc) {
		r := a.refs[i]
		r.at = at
		a.refs[remap[i]] = r
	}))
	a.refs = a.refs[:live]
	if a.order != nil {
		sorted := a.order[:0]
		for _, i := range a.order[k:] {
			sorted = append(sorted, remap[i])
		}
		a.order = sorted
		if slices.IsSorted(sorted) { // arrival order is time order again
			a.order = nil
		}
	}
	if live > 0 {
		a.lastKey = a.rowTime(at(int(live) - 1))
	}
	a.evicted += int64(k)
	return k
}

// relink rewrites every bucket ring over its surviving rows, renumbered by
// remap, and drops the buckets none survives in.
func (a *Arrangement) relink(remap []int32) {
	for h, tail := range a.index {
		ring := a.ring[:0]
		for i := a.refs[tail].next; ; i = a.refs[i].next {
			if remap[i] >= 0 {
				ring = append(ring, i)
			}
			if i == tail {
				break
			}
		}
		a.ring = ring
		if len(ring) == 0 {
			delete(a.index, h)
			continue
		}
		for j, i := range ring {
			a.refs[i].next = remap[ring[(j+1)%len(ring)]]
		}
		a.index[h] = remap[ring[len(ring)-1]]
	}
}

// ScrubLineage clears the lineage bits in mask from every stored row — the
// deferred half of freeing a query's lineage slot: after its removal the
// slot may only be reused once no stored row still carries the dead query's
// bit. Writer-only.
func (a *Arrangement) ScrubLineage(mask tuple.Bitset) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lin.scrub(mask)
}

// Stats is a point-in-time snapshot of arrangement state and counters.
type Stats struct {
	Size int // stored rows
	// Bytes is the memory the store holds: its log's plus the index (the
	// per-row refs, the time order, the hash map and the lineage table).
	Bytes int64

	Inserts        int64
	Evicted        int64 // rows evicted; eviction frees them at once
	ReclaimedBytes int64 // encoded bytes of the evicted rows
}

// Sizes behind Stats.Bytes. A map entry is a 16-byte slot (an 8-byte key
// and a 4-byte value, aligned) plus a control byte, at a load factor
// between 7/16 and 7/8: about 29 bytes an entry.
const (
	refBytes      = int64(unsafe.Sizeof(ref{}))
	mapEntryBytes = 29
)

// Stats returns a snapshot.
func (a *Arrangement) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{
		Size: len(a.refs),
		Bytes: int64(a.log.Bytes()) + refBytes*int64(cap(a.refs)) + 4*int64(cap(a.order)) +
			mapEntryBytes*int64(len(a.index)) + a.lin.bytes(),
		Inserts:        a.inserts,
		Evicted:        a.evicted,
		ReclaimedBytes: a.reclaimedB,
	}
}

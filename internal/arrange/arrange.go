// Package arrange implements arrangements (PAPERS.md, McSherry et al.): the
// one row store behind every SteM. An Arrangement is the storage half of a
// SteM — a hash index on the join column plus the time-ordered (or
// insertion-ordered) row store — owned by the engine whose SteM writes it.
// It is safe for one writer and any number of concurrent readers, and pays
// an uncontended lock per call when, as in a sequential class, the writer
// is its only reader.
//
// An arrangement keeps values, not rows. Each inserted row is encoded with
// the storage row codec (storage.AppendRow) into pointer-free byte chunks,
// and the index is pointer-free too: a map from key hash to a row number,
// per-row links in one flat slice, and each row's lineage an id into a small
// table of interned bitmaps. Nothing a reader sees escapes a Read: a visitor
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
	// -1 disables indexing (Lookup degenerates to Scan).
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

// Chunk sizes: the first chunk is small so an arrangement that stores a
// handful of rows stays cheap, each later one doubles up to the cap. A chunk
// is allocated at its full size and never grown.
const (
	firstChunk = 4 << 10
	maxChunk   = 64 << 10
)

// ref locates one stored row: its chunk and offset, the next row of its
// index bucket, and its lineage id. A bucket is a ring in arrival order: the
// index names its newest row, whose next is the oldest.
type ref struct {
	chunk, off int32
	next       int32
	lineage    int32
}

// Arrangement is a row store. All methods are safe for concurrent use,
// under a single-writer discipline: exactly one goroutine calls the mutating
// methods (Insert, Evict, ScrubLineage), while any number concurrently call
// the reading methods (Read, Lookup, Scan, Len, Stats).
type Arrangement struct {
	opts Options

	mu         sync.RWMutex
	chunks     [][]byte
	chunkBytes int64 // capacity of every chunk
	refs       []ref // stored rows, in arrival order
	index      map[uint64]int32
	// order lists the rows in window-time order, ties in arrival order, once
	// a row has arrived out of time order; nil while arrival order is time
	// order. lastKey is the window time of the last row in time order.
	order   []int32
	lastKey int64
	lin     lineages
	enc     []byte  // one encoded row, before it is placed in a chunk
	remap   []int32 // Evict's scratch: each row's number after it
	ring    []int32 // Evict's scratch: one bucket's survivors

	inserts    int64
	evicted    int64 // rows; every one is freed at once
	reclaimedB int64
}

// New creates an empty arrangement. It holds no chunk until its first
// Insert.
func New(opts Options) *Arrangement {
	a := &Arrangement{opts: opts}
	if opts.KeyCol >= 0 {
		a.index = make(map[uint64]int32)
	}
	a.lin.init()
	return a
}

// Name returns the arrangement's label.
func (a *Arrangement) Name() string { return a.opts.Name }

// Insert encodes a batch of rows: their Seq, TS,
// values and lineage. The arrangement keeps no pointer into any of them, so
// the caller may reuse them when Insert returns. Writer-only.
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
	a.enc = storage.AppendRow(a.enc[:0], t)
	c := len(a.chunks) - 1
	if c < 0 || cap(a.chunks[c])-len(a.chunks[c]) < len(a.enc) {
		c = a.addChunk(len(a.enc))
	}
	i := int32(len(a.refs))
	r := ref{chunk: int32(c), off: int32(len(a.chunks[c])), next: i,
		lineage: a.lin.intern(t.Queries, a.opts.Borrowed)}
	a.chunks[c] = append(a.chunks[c], a.enc...)
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

// addChunk opens the next chunk, big enough for a row of n bytes: twice the
// last one, up to maxChunk, and returns its number.
//
//tcq:coldpath
func (a *Arrangement) addChunk(n int) int {
	size := firstChunk
	if k := len(a.chunks); k > 0 {
		size = min(2*cap(a.chunks[k-1]), maxChunk)
	}
	size = max(size, n)
	a.chunks = append(a.chunks, make([]byte, 0, size))
	a.chunkBytes += int64(size)
	return len(a.chunks) - 1
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
	r := a.refs[i]
	return a.timeOf(storage.ReadStamp(a.chunks[r.chunk][r.off:]))
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
	return Row{buf: r.a.chunks[ref.chunk][ref.off:], lineage: r.a.lin.sets[ref.lineage]}
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

// Lookup calls emit for every row of Bucket(hash), under one Read, each
// decoded into the same tuple: emit must copy what it keeps.
func (a *Arrangement) Lookup(hash uint64, emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) { r.Bucket(hash, decodeEach(emit)) })
}

// Scan calls emit for every stored row in All's order, under one Read, each
// decoded into the same tuple: emit must copy what it keeps.
func (a *Arrangement) Scan(emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) { r.All(decodeEach(emit)) })
}

// decodeEach is a visitor decoding each row into one tuple for emit.
func decodeEach(emit func(*tuple.Tuple)) func(Row) {
	var t tuple.Tuple
	var vals []tuple.Value
	return func(row Row) {
		vals = row.Decode(&t, vals[:0])
		emit(&t)
	}
}

// Len returns the number of stored rows.
func (a *Arrangement) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.refs)
}

// Evict drops the stored rows with window time strictly below watermark and
// frees them at once: the survivors move down over them, in their chunks,
// and the index is relinked over the survivors. Writer-only. Returns the
// number evicted. Only valid on windowed arrangements (no-op otherwise).
func (a *Arrangement) Evict(watermark int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.opts.Windowed || len(a.refs) == 0 {
		return 0
	}
	// The rows below the watermark are a prefix of time order.
	n := len(a.refs)
	var k int
	if a.order == nil {
		k = sort.Search(n, func(j int) bool { return a.rowTime(int32(j)) >= watermark })
	} else {
		k = sort.Search(n, func(j int) bool { return a.rowTime(a.order[j]) >= watermark })
	}
	if k == 0 {
		return 0
	}
	// remap[i] is row i's number after the eviction, or -1.
	a.remap = slices.Grow(a.remap[:0], n)[:n]
	remap := a.remap
	clear(remap)
	if a.order == nil {
		for i := range remap[:k] {
			remap[i] = -1
		}
	} else {
		for _, i := range a.order[:k] {
			remap[i] = -1
		}
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
	a.compact(remap, int(live))
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
		last := live - 1
		if a.order != nil {
			last = a.order[live-1]
		}
		a.lastKey = a.rowTime(last)
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

// compact moves the surviving rows, live of them, down over the evicted
// ones in arrival order. A row is never written past where it was read
// from, so the move stays inside the chunks already held; the chunks it
// empties are dropped, all but the first, which the next Insert reuses.
func (a *Arrangement) compact(remap []int32, live int) {
	n := len(a.refs)
	w, wOff := 0, 0
	for i := 0; i < n; i++ {
		r := a.refs[i]
		end := len(a.chunks[r.chunk])
		if i+1 < n && a.refs[i+1].chunk == r.chunk {
			end = int(a.refs[i+1].off)
		}
		size := end - int(r.off)
		if remap[i] < 0 {
			a.reclaimedB += int64(size)
			continue
		}
		for cap(a.chunks[w])-wOff < size {
			a.chunks[w] = a.chunks[w][:wOff]
			w, wOff = w+1, 0
		}
		dst := a.chunks[w][:cap(a.chunks[w])]
		copy(dst[wOff:wOff+size], a.chunks[r.chunk][r.off:end])
		r.chunk, r.off = int32(w), int32(wOff)
		a.refs[remap[i]] = r
		wOff += size
	}
	a.chunks[w] = a.chunks[w][:wOff]
	for c := w + 1; c < len(a.chunks); c++ {
		a.chunkBytes -= int64(cap(a.chunks[c]))
		a.chunks[c] = nil
	}
	a.chunks = a.chunks[:w+1]
	a.refs = a.refs[:live]
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
	// Bytes is the memory the store holds: chunk capacity plus the index
	// (the per-row refs, the time order, the hash map and the lineage
	// table).
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
		Bytes: a.chunkBytes + refBytes*int64(cap(a.refs)) + 4*int64(cap(a.order)) +
			mapEntryBytes*int64(len(a.index)) + a.lin.bytes(),
		Inserts:        a.inserts,
		Evicted:        a.evicted,
		ReclaimedBytes: a.reclaimedB,
	}
}

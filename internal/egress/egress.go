// Package egress implements result delivery (§4.3 "Egress Modules"):
// push-based operators stream results to connected clients as they are
// produced, while pull-based operators log results so intermittently
// connected clients can retrieve them on demand — the delivery duality
// TelegraphCQ inherits from CACQ (push) and PSoup (pull).
package egress

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
)

// PushEgress fans results out to subscribed clients. Delivery is
// non-blocking: a client that cannot keep up has tuples dropped (counted),
// never stalling the executor — the QoS stance of §4.3.
type PushEgress struct {
	mu      sync.Mutex
	nextID  int
	clients map[int]chan *tuple.Tuple
	closed  bool
	dropped int64
	sent    int64
	// subscribed mirrors len(clients), so a publish with nobody listening
	// returns without the lock.
	subscribed atomic.Int32
}

// NewPushEgress creates an empty fan-out.
func NewPushEgress() *PushEgress {
	return &PushEgress{clients: make(map[int]chan *tuple.Tuple)}
}

// Subscribe attaches a client with the given buffer; the returned channel
// closes on Unsubscribe or Close, and is already closed after Close.
func (e *PushEgress) Subscribe(buffer int) (int, <-chan *tuple.Tuple) {
	if buffer < 1 {
		buffer = 64
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	ch := make(chan *tuple.Tuple, buffer)
	if e.closed {
		close(ch)
	} else {
		e.clients[id] = ch
		e.subscribed.Store(int32(len(e.clients)))
	}
	return id, ch
}

// Close detaches and closes every client: the results have ended.
func (e *PushEgress) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for id, ch := range e.clients {
		close(ch)
		delete(e.clients, id)
	}
	e.subscribed.Store(0)
}

// Unsubscribe detaches a client and closes its channel.
func (e *PushEgress) Unsubscribe(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.clients[id]; ok {
		close(ch)
		delete(e.clients, id)
		e.subscribed.Store(int32(len(e.clients)))
	}
}

// Publish delivers t to every subscriber without blocking. It returns the
// number of subscribed clients — callers use a zero return as proof that no
// push client holds a reference to t. With none subscribed it takes no lock:
// a client subscribing concurrently starts with a later row.
func (e *PushEgress) Publish(t *tuple.Tuple) int {
	if e.subscribed.Load() == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ch := range e.clients {
		select {
		case ch <- t:
			e.sent++
		default:
			e.dropped++
		}
	}
	return len(e.clients)
}

// PublishBatch delivers every tuple of ts (in order, per client) under one
// lock acquisition, returning the number of subscribed clients.
func (e *PushEgress) PublishBatch(ts []*tuple.Tuple) int {
	if e.subscribed.Load() == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ch := range e.clients {
		for _, t := range ts {
			select {
			case ch <- t:
				e.sent++
			default:
				e.dropped++
			}
		}
	}
	return len(e.clients)
}

// Stats returns delivered and dropped counts.
func (e *PushEgress) Stats() (sent, dropped int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent, e.dropped
}

// Chunk sizes of a pull log: the first chunk is small, so a query that
// publishes a handful of results holds little; each later one doubles up to
// maxChunk, as a storage.Log's chunks do.
const (
	firstChunk = 512
	maxChunk   = 64 << 10
)

// PullEgress logs results in arrival order; disconnected clients fetch
// everything since their cursor when they return.
//
// The log keeps values, not the published tuples: each row is encoded with
// the storage row codec into pointer-free byte chunks, so a publisher may
// reuse a tuple the moment Publish returns and the collector never scans
// what the log retains. chunks[0] holds the oldest retained row, skip rows
// in; the newest row ends the last chunk. A log that has published nothing
// holds no chunk. At the cap, each publish ages the oldest row out by moving
// skip on, and a chunk whose rows have all aged out becomes the spare that
// the next chunk reuses, so a log at its cap allocates nothing.
type PullEgress struct {
	mu      sync.Mutex
	chunks  []pullChunk
	spare   []byte // an emptied chunk, kept for the next one to reuse
	skip    int    // rows of chunks[0] that aged out
	n       int
	cap     int
	base    int64 // absolute position of the oldest retained row; also the rows aged out so far
	missed  int64 // aged-out rows Fetch has reported to a cursor, summed over cursors
	bytes   int   // capacity of every chunk and of the spare
	cursors map[int]pullCursor
	nextID  int
	scratch []byte      // one encoded row, before it is placed in a chunk
	row     tuple.Tuple // locate's scratch for the rows it steps over
}

// pullChunk is a run of encoded rows. Its buffer never grows past the
// capacity it was made with.
type pullChunk struct {
	buf   []byte
	first int64 // absolute position of its first row
	rows  int
	vals  int // values over its rows
}

// pullCursor is a client's next absolute position and, once a Fetch has
// left it at the log's end, where that position starts: off bytes and vals
// values into the chunk whose first row is at chunk (-1: not known), so
// the next Fetch need not step over the rows before it.
type pullCursor struct {
	pos       int64
	chunk     int64
	off, vals int
}

// NewPullEgress keeps at most capTuples results (older ones age out).
func NewPullEgress(capTuples int) *PullEgress {
	if capTuples < 1 {
		capTuples = 1 << 16
	}
	return &PullEgress{cap: capTuples, cursors: make(map[int]pullCursor)}
}

// Publish appends a result's values to the log.
func (e *PullEgress) Publish(t *tuple.Tuple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pushLocked(t)
}

// PublishBatch appends a batch of results under one lock acquisition.
// owned is ignored: the log keeps values, so who owns a row no longer
// matters to it. The argument goes when the benchmark's layer timings stop
// passing it.
func (e *PullEgress) PublishBatch(ts []*tuple.Tuple, owned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range ts {
		e.pushLocked(t)
	}
}

// pushLocked encodes one row behind the newest, first aging out the oldest
// when the log is at its cap. A batch larger than the cap therefore ages
// out its own first rows, oldest first, exactly as later publishes would.
// A row never spans two chunks: one that does not fit the last chunk opens
// the next.
func (e *PullEgress) pushLocked(t *tuple.Tuple) {
	if e.n == e.cap {
		e.evictOldestLocked()
	}
	e.scratch = storage.AppendRow(e.scratch[:0], t)
	last := len(e.chunks) - 1
	if last < 0 || cap(e.chunks[last].buf)-len(e.chunks[last].buf) < len(e.scratch) {
		e.openChunk(len(e.scratch))
		last = len(e.chunks) - 1
	}
	c := &e.chunks[last]
	c.buf = append(c.buf, e.scratch...)
	c.rows++
	c.vals += len(t.Vals)
	e.n++
}

// evictOldestLocked ages out the oldest retained row. Its bytes stay until
// every row of its chunk has aged out; then the chunk, unless it is the one
// publishing appends to, becomes the spare.
func (e *PullEgress) evictOldestLocked() {
	e.skip++
	e.n--
	e.base++
	if len(e.chunks) > 1 && e.skip == e.chunks[0].rows {
		e.retireOldest()
	}
}

// retireOldest drops chunks[0], every row of which has aged out, keeping
// its buffer as the spare unless the spare is larger.
func (e *PullEgress) retireOldest() {
	old := e.chunks[0].buf
	if cap(old) > cap(e.spare) {
		old, e.spare = e.spare, old[:0]
	}
	e.bytes -= cap(old)
	m := copy(e.chunks, e.chunks[1:])
	e.chunks[m] = pullChunk{}
	e.chunks = e.chunks[:m]
	e.skip = 0
}

// openChunk appends the chunk the next row, of need bytes, goes to: the
// spare when it is large enough, else a new one twice the size of the last
// (firstChunk for the first, maxChunk at most, need at least). A last chunk
// whose rows have all aged out is retired first, so its buffer can be the
// one reused.
func (e *PullEgress) openChunk(need int) {
	if len(e.chunks) == 1 && e.skip == e.chunks[0].rows {
		e.retireOldest()
	}
	first := e.base + int64(e.n)
	if cap(e.spare) >= need {
		e.chunks = append(e.chunks, pullChunk{buf: e.spare, first: first})
		e.spare = nil
		return
	}
	size := firstChunk
	if last := len(e.chunks) - 1; last >= 0 {
		size = min(2*cap(e.chunks[last].buf), maxChunk)
	}
	e.chunks = append(e.chunks, pullChunk{buf: e.alloc(max(size, need)), first: first})
}

// alloc makes one chunk buffer. Audited amortization point: O(log maxChunk)
// calls while a log grows to maxChunk-sized chunks, then one per maxChunk
// bytes until it reaches its cap, and none at the cap, where every chunk
// reuses the spare.
//
//tcq:coldpath
func (e *PullEgress) alloc(size int) []byte {
	e.bytes += size
	return make([]byte, 0, size)
}

// locate returns where absolute position pos, base <= pos <= the log's
// end, starts: chunk j, off bytes and vals values in. hint is a cursor's
// record of the place, used while its chunk is retained; otherwise locate
// decodes its way over the chunk's earlier rows.
func (e *PullEgress) locate(pos int64, hint pullCursor) (j, off, vals int) {
	if pos == e.base+int64(e.n) {
		if j = len(e.chunks) - 1; j < 0 {
			return 0, 0, 0
		}
		return j, len(e.chunks[j].buf), e.chunks[j].vals
	}
	for j = range e.chunks {
		c := &e.chunks[j]
		if c.first == hint.chunk {
			return j, hint.off, hint.vals
		}
		if pos < c.first+int64(c.rows) {
			break
		}
	}
	c := &e.chunks[j]
	for k := c.first; k < pos; k++ {
		var n int
		// The log encoded these rows itself: they decode.
		e.row.Vals, n, _ = storage.ReadRow(c.buf[off:], &e.row, e.row.Vals[:0])
		off += n
		vals += len(e.row.Vals)
	}
	return j, off, vals
}

// endLocked is a cursor at the log's end, with its place recorded.
func (e *PullEgress) endLocked() pullCursor {
	cur := pullCursor{pos: e.base + int64(e.n), chunk: -1}
	if last := len(e.chunks) - 1; last >= 0 {
		c := &e.chunks[last]
		cur.chunk, cur.off, cur.vals = c.first, len(c.buf), c.vals
	}
	return cur
}

// Register creates a client cursor positioned at the current log end
// (clients see results produced after they register; use RegisterAt(0) to
// replay history).
func (e *PullEgress) Register() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	e.cursors[id] = e.endLocked()
	return id
}

// RegisterAt creates a client cursor at absolute position pos (clamped to
// the retained window).
func (e *PullEgress) RegisterAt(pos int64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := pullCursor{pos: max(pos, e.base), chunk: -1}
	if end := e.base + int64(e.n); cur.pos >= end {
		cur = e.endLocked()
	}
	id := e.nextID
	e.nextID++
	e.cursors[id] = cur
	return id
}

// fetchLocked moves the client's cursor to the log's end and returns where
// the rows it passed over start (chunk j, off bytes in), how many rows and
// values they are, and how many rows aged out before the cursor reached
// them.
func (e *PullEgress) fetchLocked(id int) (j, off, rows, vals int, missed int64, err error) {
	cur, ok := e.cursors[id]
	if !ok {
		return 0, 0, 0, 0, 0, fmt.Errorf("egress: unknown client %d", id)
	}
	if cur.pos < e.base {
		missed = e.base - cur.pos
		e.missed += missed
		cur = pullCursor{pos: e.base, chunk: -1}
	}
	j, off, before := e.locate(cur.pos, cur)
	vals = -before
	for _, c := range e.chunks[min(j, len(e.chunks)):] {
		vals += c.vals
	}
	rows = int(e.base + int64(e.n) - cur.pos)
	e.cursors[id] = e.endLocked()
	return j, off, rows, vals, missed, nil
}

// Fetch returns everything since the client's cursor, decoded into fresh
// tuples the caller owns, and advances it. A client that stayed away so
// long that results aged out gets the retained suffix plus the number it
// missed. However many rows it returns, Fetch makes three allocations, the
// pointers, the tuples and their values (and one per string value).
func (e *PullEgress) Fetch(id int) (results []*tuple.Tuple, missed int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, off, rows, vals, missed, err := e.fetchLocked(id)
	if err != nil {
		return nil, 0, err
	}
	results = make([]*tuple.Tuple, rows)
	tups := make([]tuple.Tuple, rows)
	slab := make([]tuple.Value, 0, vals)
	i := 0
	for ; j < len(e.chunks); j, off = j+1, 0 {
		for buf := e.chunks[j].buf[off:]; len(buf) > 0; i++ {
			var n int
			if slab, n, err = storage.ReadRow(buf, &tups[i], slab); err != nil {
				return nil, missed, err
			}
			buf = buf[n:]
			results[i] = &tups[i]
		}
	}
	return results, missed, nil
}

// Encoded is a run of results in the storage row codec, as FetchEncoded
// copies them out of a log: Rows rows holding Vals values in all.
type Encoded struct {
	Buf        []byte
	Rows, Vals int
}

// FetchEncoded is Fetch without the decoding: it appends the encoded rows
// since the client's cursor to dst and advances the cursor. The copy is all
// it does under the log's lock, so a caller that decodes and writes the rows
// out holds up no publisher while it does.
func (e *PullEgress) FetchEncoded(id int, dst []byte) (Encoded, int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, off, rows, vals, missed, err := e.fetchLocked(id)
	if err != nil {
		return Encoded{Buf: dst}, 0, err
	}
	size := 0
	for k := j; k < len(e.chunks); k++ {
		size += len(e.chunks[k].buf)
	}
	dst = slices.Grow(dst, size-off)
	for ; j < len(e.chunks); j, off = j+1, 0 {
		dst = append(dst, e.chunks[j].buf[off:]...)
	}
	return Encoded{Buf: dst, Rows: rows, Vals: vals}, missed, nil
}

// Each decodes the run's rows in order into t, each reusing t.Vals' array,
// and hands t to fn, which must copy whatever it keeps of the row.
func (b Encoded) Each(t *tuple.Tuple, fn func(*tuple.Tuple)) error {
	vals := t.Vals[:0]
	for buf := b.Buf; len(buf) > 0; {
		var n int
		var err error
		if vals, n, err = storage.ReadRow(buf, t, vals[:0]); err != nil {
			return err
		}
		buf = buf[n:]
		fn(t)
	}
	return nil
}

// Deregister drops a client cursor.
func (e *PullEgress) Deregister(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.cursors, id)
}

// Cursors returns the number of registered client cursors.
func (e *PullEgress) Cursors() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cursors)
}

// Len returns the number of retained results.
func (e *PullEgress) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Bytes returns the capacity of the log's chunks, its spare included: the
// memory it holds for the rows it retains.
func (e *PullEgress) Bytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bytes
}

// Stats returns the rows aged out of retention so far and how many of them
// Fetch reported to a cursor as missed (a row two cursors missed counts
// twice). Published = Len + evicted at every instant.
func (e *PullEgress) Stats() (evicted, missed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.base, e.missed
}

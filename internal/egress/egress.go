// Package egress implements result delivery (§4.3 "Egress Modules"):
// push-based operators stream results to connected clients as they are
// produced, while pull-based operators log results so intermittently
// connected clients can retrieve them on demand — the delivery duality
// TelegraphCQ inherits from CACQ (push) and PSoup (pull).
package egress

import (
	"fmt"
	"math"
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

// PullEgress logs results in arrival order; disconnected clients fetch
// everything since their cursor when they return. The log is a storage.Log
// of the results' values, its first chunk 512 B so a query with a handful
// of results holds little; at the cap each publish ages the oldest row out,
// so a log at its cap reuses its chunks and allocates nothing. A cursor is
// a storage.Mark: where its last fetch ended.
type PullEgress struct {
	mu      sync.Mutex
	log     storage.Log
	cap     int
	missed  int64 // aged-out rows Fetch has reported to a cursor, summed over cursors
	cursors map[int]storage.Mark
	nextID  int
}

// NewPullEgress keeps at most capTuples results (older ones age out).
func NewPullEgress(capTuples int) *PullEgress {
	if capTuples < 1 {
		capTuples = 1 << 16
	}
	return &PullEgress{log: *storage.NewLog(512), cap: capTuples, cursors: make(map[int]storage.Mark)}
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

// pushLocked appends one row, first aging out the oldest at the cap, so a
// batch larger than the cap ages out its own first rows.
func (e *PullEgress) pushLocked(t *tuple.Tuple) {
	if e.log.Len() == e.cap {
		e.log.TruncateFront(e.log.Start() + 1)
	}
	e.log.Append(t)
}

// Register creates a client cursor at the log's end: the client sees the
// results produced after it registers (RegisterAt(0) replays history).
func (e *PullEgress) Register() int { return e.RegisterAt(math.MaxInt64) }

// RegisterAt creates a client cursor at absolute position pos (clamped to
// the retained window).
func (e *PullEgress) RegisterAt(pos int64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	e.cursors[id] = e.log.Locate(pos, storage.Mark{})
	return id
}

// fetchLocked moves the client's cursor to the log's end, returning where
// it was and how many rows aged out before it reached them.
func (e *PullEgress) fetchLocked(id int) (from storage.Mark, missed int64, err error) {
	cur, ok := e.cursors[id]
	if !ok {
		return from, 0, fmt.Errorf("egress: unknown client %d", id)
	}
	if start := e.log.Start(); cur.Pos < start {
		missed = start - cur.Pos
		e.missed += missed
	}
	e.cursors[id] = e.log.End()
	return e.log.Locate(cur.Pos, cur), missed, nil
}

// Fetch returns everything since the client's cursor, decoded into fresh
// tuples the caller owns, and advances it. A client that stayed away so
// long that results aged out gets the retained suffix plus the number it
// missed. However many rows it returns, Fetch makes three allocations, the
// pointers, the tuples and their values (and one per string value).
func (e *PullEgress) Fetch(id int) (results []*tuple.Tuple, missed int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	from, missed, err := e.fetchLocked(id)
	if err != nil {
		return nil, 0, err
	}
	results, err = e.log.Decode(from, math.MinInt64, math.MaxInt64)
	return results, missed, err
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
	from, missed, err := e.fetchLocked(id)
	if err != nil {
		return Encoded{Buf: dst}, 0, err
	}
	buf, rows, vals := e.log.AppendTo(dst, from)
	return Encoded{Buf: buf, Rows: rows, Vals: vals}, missed, nil
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
	return e.log.Len()
}

// Bytes returns the memory the log holds (storage.Log.Bytes).
func (e *PullEgress) Bytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Bytes()
}

// Stats returns the rows aged out of retention so far and how many of them
// Fetch reported to a cursor as missed (a row two cursors missed counts
// twice). Published = Len + evicted at every instant.
func (e *PullEgress) Stats() (evicted, missed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Start(), e.missed
}

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

// PushEgress fans live result rows out to subscribed clients. Delivery is
// non-blocking: a client that cannot keep up has tuples dropped (counted),
// never stalling the executor — the QoS stance of §4.3. The engine no longer
// uses it: a push reader follows a query's PullEgress (Follow). It stays
// only because the benchmark's layer timings still import it.
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
// a storage.Mark: where its last fetch ended. A push reader is a cursor too
// (Follow), one that each publish wakes.
type PullEgress struct {
	mu      sync.Mutex
	log     storage.Log
	cap     int
	missed  int64 // aged-out rows Fetch has reported to a cursor, summed over cursors
	cursors map[int]storage.Mark
	// wakes holds the followers' one-slot wake channels, by cursor.
	wakes  map[int]chan struct{}
	nextID int
}

// NewPullEgress keeps at most capTuples results (older ones age out).
func NewPullEgress(capTuples int) *PullEgress {
	if capTuples < 1 {
		capTuples = 1 << 16
	}
	return &PullEgress{log: *storage.NewLog(512), cap: capTuples,
		cursors: make(map[int]storage.Mark), wakes: make(map[int]chan struct{})}
}

// Publish appends a result's values to the log and wakes its followers.
func (e *PullEgress) Publish(t *tuple.Tuple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pushLocked(t)
	e.wakeLocked()
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
	e.wakeLocked()
}

// wakeLocked signals every follower once, never blocking: a wake channel
// that is full already holds the signal of a fetch to come.
func (e *PullEgress) wakeLocked() {
	for _, w := range e.wakes {
		select {
		case w <- struct{}{}:
		default:
		}
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

// Follow creates a client cursor at the log's end, as Register does, and a
// one-slot channel that every later publish signals: a follower waits on
// it, then fetches. Deregister drops both.
func (e *PullEgress) Follow() (id int, wake <-chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id = e.nextID
	e.nextID++
	e.cursors[id] = e.log.End()
	w := make(chan struct{}, 1)
	e.wakes[id] = w
	return id, w
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

// Each decodes the run's rows in order into t and hands t to fn, until fn
// returns false. Each row's values go into t.Vals[:0], so into t.Vals'
// array while it has room: fn copies whatever it keeps of the row, or
// points t.Vals past the row at spare room of its own before returning.
func (b Encoded) Each(t *tuple.Tuple, fn func(*tuple.Tuple) bool) error {
	for buf := b.Buf; len(buf) > 0; {
		_, n, err := storage.ReadRow(buf, t, t.Vals[:0])
		if err != nil {
			return err
		}
		buf = buf[n:]
		if !fn(t) {
			return nil
		}
	}
	return nil
}

// Deregister drops a client cursor, and a follower's wake channel.
func (e *PullEgress) Deregister(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.cursors, id)
	delete(e.wakes, id)
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

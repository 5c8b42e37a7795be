// Package egress implements result delivery (§4.3 "Egress Modules"):
// push-based operators stream results to connected clients as they are
// produced, while pull-based operators log results so intermittently
// connected clients can retrieve them on demand — the delivery duality
// TelegraphCQ inherits from CACQ (push) and PSoup (pull).
package egress

import (
	"fmt"
	"sync"

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
}

// Unsubscribe detaches a client and closes its channel.
func (e *PushEgress) Unsubscribe(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.clients[id]; ok {
		close(ch)
		delete(e.clients, id)
	}
}

// Publish delivers t to every subscriber without blocking. It returns the
// number of subscribed clients — callers use a zero return as proof that no
// push client holds a reference to t.
func (e *PushEgress) Publish(t *tuple.Tuple) int {
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

// pullEntry is one logged result. owned marks tuples the egress holds the
// only live reference to: when they age out of the retention window they
// return to the tuple pool instead of the garbage collector. Fetching an
// entry hands its pointer to a client and clears the mark.
type pullEntry struct {
	t     *tuple.Tuple
	owned bool
}

// PullEgress logs results in arrival order; disconnected clients fetch
// everything since their cursor when they return.
//
// The log is a ring over one backing array: ring[head] is the oldest
// retained row, at absolute position base, and the n retained rows follow
// it, wrapping at len(ring). Publishing writes behind the newest row and
// aging out advances head, so both cost the same however full the log is.
// The array grows on demand as a slice under append would (grow) until it
// holds cap rows; nothing is evicted before then, so head stays 0 while
// len(ring) < cap and growing never has to unwrap.
type PullEgress struct {
	mu      sync.Mutex
	ring    []pullEntry
	head    int
	n       int
	cap     int
	base    int64 // absolute position of ring[head]; also the rows aged out so far
	missed  int64 // aged-out rows Fetch has reported to a cursor, summed over cursors
	cursors map[int]int64
	nextID  int
	pool    *tuple.Pool // recycles owned entries aging out; nil disables
}

// NewPullEgress keeps at most capTuples results (older ones age out).
func NewPullEgress(capTuples int) *PullEgress {
	if capTuples < 1 {
		capTuples = 1 << 16
	}
	return &PullEgress{cap: capTuples, cursors: make(map[int]int64)}
}

// SetRecycler installs the pool that owned results return to when they age
// out of the retention window.
func (e *PullEgress) SetRecycler(p *tuple.Pool) {
	e.mu.Lock()
	e.pool = p
	e.mu.Unlock()
}

// Publish appends a result to the log.
func (e *PullEgress) Publish(t *tuple.Tuple) { e.PublishOwned(t, false) }

// PublishOwned appends a result, marking whether the egress now owns the
// tuple's memory (the producer guarantees no other live reference).
func (e *PullEgress) PublishOwned(t *tuple.Tuple, owned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pushLocked(pullEntry{t: t, owned: owned && e.pool != nil})
}

// PublishBatch appends a batch of results under one lock acquisition.
func (e *PullEgress) PublishBatch(ts []*tuple.Tuple, owned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	owned = owned && e.pool != nil
	for _, t := range ts {
		e.pushLocked(pullEntry{t: t, owned: owned})
	}
}

// pushLocked writes one row behind the newest, first aging out the oldest
// when the log is at its cap. A batch larger than the cap therefore ages
// out its own first rows, oldest first, exactly as later publishes would.
func (e *PullEgress) pushLocked(ent pullEntry) {
	if e.n == len(e.ring) {
		if e.n < e.cap {
			e.grow()
		} else {
			e.evictOldestLocked()
		}
	}
	e.ring[e.at(e.n)] = ent
	e.n++
}

// at returns the ring index of the i-th retained row (i == n: the slot the
// next row takes).
func (e *PullEgress) at(i int) int {
	if i += e.head; i >= len(e.ring) {
		i -= len(e.ring)
	}
	return i
}

// grow enlarges a full backing array that is still under the cap. It grows
// by append itself, so a log that never reaches its cap allocates what a
// plain slice would; the step that could cross the cap allocates the cap
// exactly, and the array is never larger than that. Audited amortization
// point: O(log cap) calls per log lifetime, none once the log is at its cap.
//
//tcq:coldpath
func (e *PullEgress) grow() {
	n := len(e.ring)
	// append's next capacity before it rounds up to an allocation size
	// class; the rounding adds less than an eighth.
	next := 2 * n
	if n >= 256 {
		next = n + (n+3*256)/4
	}
	if next+next/8 >= e.cap {
		ring := make([]pullEntry, e.cap)
		copy(ring, e.ring)
		e.ring = ring
		return
	}
	e.ring = append(e.ring, pullEntry{})
	// How far append rounds up is the allocator's business: whatever it
	// does, the log never uses more than cap slots.
	e.ring = e.ring[:min(cap(e.ring), e.cap)]
}

// evictOldestLocked ages out the oldest retained row, returning an owned
// tuple to the pool. It runs only on a full ring at its cap, where the slot
// it vacates is the one the incoming row is about to overwrite, so no slot
// outside the retained range ever holds a pointer.
func (e *PullEgress) evictOldestLocked() {
	if ent := &e.ring[e.head]; ent.owned {
		e.pool.Put(ent.t)
	}
	e.head = e.at(1)
	e.n--
	e.base++
}

// Register creates a client cursor positioned at the current log end
// (clients see results produced after they register; use RegisterAt(0) to
// replay history).
func (e *PullEgress) Register() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	e.cursors[id] = e.base + int64(e.n)
	return id
}

// RegisterAt creates a client cursor at absolute position pos (clamped to
// the retained window).
func (e *PullEgress) RegisterAt(pos int64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pos < e.base {
		pos = e.base
	}
	if end := e.base + int64(e.n); pos > end {
		pos = end
	}
	id := e.nextID
	e.nextID++
	e.cursors[id] = pos
	return id
}

// Fetch returns everything since the client's cursor and advances it. A
// client that stayed away so long that results aged out gets the retained
// suffix plus the number it missed.
func (e *PullEgress) Fetch(id int) (results []*tuple.Tuple, missed int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.cursors[id]
	if !ok {
		return nil, 0, fmt.Errorf("egress: unknown client %d", id)
	}
	if cur < e.base {
		missed = e.base - cur
		e.missed += missed
		cur = e.base
	}
	start := int(cur - e.base)
	results = make([]*tuple.Tuple, 0, e.n-start)
	for i := start; i < e.n; i++ {
		ent := &e.ring[e.at(i)]
		// The client holds the pointer from here on: the egress no longer
		// owns the tuple's memory.
		ent.owned = false
		results = append(results, ent.t)
	}
	e.cursors[id] = e.base + int64(e.n)
	return results, missed, nil
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

// Stats returns the rows aged out of retention so far and how many of them
// Fetch reported to a cursor as missed (a row two cursors missed counts
// twice). Published = Len + evicted at every instant.
func (e *PullEgress) Stats() (evicted, missed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.base, e.missed
}

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
	dropped int64
	sent    int64
}

// NewPushEgress creates an empty fan-out.
func NewPushEgress() *PushEgress {
	return &PushEgress{clients: make(map[int]chan *tuple.Tuple)}
}

// Subscribe attaches a client with the given buffer; the returned channel
// closes on Unsubscribe.
func (e *PushEgress) Subscribe(buffer int) (int, <-chan *tuple.Tuple) {
	if buffer < 1 {
		buffer = 64
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	ch := make(chan *tuple.Tuple, buffer)
	e.clients[id] = ch
	return id, ch
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

// Clients returns the number of subscribed push clients. The columnar
// emit path checks it before deciding whether result blocks can stay
// columnar (pull-only delivery) or must materialize rows for push fan-out.
func (e *PushEgress) Clients() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.clients)
}

// pullEntry is one logged result. owned marks tuples the egress holds the
// only live reference to: when they age out of the retention window they
// return to the tuple pool instead of the garbage collector. Fetching an
// entry hands its pointer to a client and clears the mark.
//
// A columnar result occupies one entry per row with blk set and t nil:
// the row stays struct-of-arrays in the retained block and is only
// materialized as a *Tuple when a client fetches it. Owned block rows are
// refcounted per block (blockRows): when the last retained row of an
// owned block ages out, the whole block returns to its arena.
type pullEntry struct {
	t     *tuple.Tuple
	blk   *tuple.Block
	row   int32
	owned bool
}

// PullEgress logs results in arrival order; disconnected clients fetch
// everything since their cursor when they return.
type PullEgress struct {
	mu      sync.Mutex
	log     []pullEntry
	cap     int
	base    int64 // absolute index of log[0]
	cursors map[int]int64
	nextID  int
	pool    *tuple.Pool // recycles owned entries aging out; nil disables

	// blockRows counts retained rows per owned block; the publisher's
	// goroutine releases a block to its arena when the count hits zero.
	// Arenas are single-goroutine, but eviction only runs inside Publish*
	// calls — which the single producing runtime makes — so releases stay
	// on the arena's owning goroutine.
	blockRows map[*tuple.Block]int32
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
	e.log = append(e.log, pullEntry{t: t, owned: owned && e.pool != nil})
	e.evictOverLocked()
}

// PublishBatch appends a batch of results under one lock acquisition.
func (e *PullEgress) PublishBatch(ts []*tuple.Tuple, owned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	owned = owned && e.pool != nil
	for _, t := range ts {
		e.log = append(e.log, pullEntry{t: t, owned: owned})
	}
	e.evictOverLocked()
}

// PublishBlock appends every row of a columnar result block under one
// lock acquisition, without materializing tuples: rows stay in the block
// until fetched. owned marks blocks the egress must release back to
// their arena once all rows age out of retention (the producer
// guarantees no other live reference to the block).
func (e *PullEgress) PublishBlock(b *tuple.Block, owned bool) {
	n := b.Len()
	if n == 0 {
		if owned {
			b.Release()
		}
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if owned {
		if e.blockRows == nil {
			//lint:ignore alloccheck lazy refcount-map init: once per egress lifetime, not per row
			e.blockRows = make(map[*tuple.Block]int32)
		}
		//lint:ignore alloccheck block refcount insert: one map write per published block, amortized across its rows
		e.blockRows[b] = int32(n)
	}
	for i := 0; i < n; i++ {
		e.log = append(e.log, pullEntry{blk: b, row: int32(i), owned: owned})
	}
	e.evictOverLocked()
}

func (e *PullEgress) evictOverLocked() {
	over := len(e.log) - e.cap
	if over <= 0 {
		return
	}
	for i := 0; i < over; i++ {
		ent := e.log[i]
		switch {
		case ent.blk != nil:
			if ent.owned {
				if left := e.blockRows[ent.blk] - 1; left > 0 {
					//lint:ignore alloccheck refcount decrement on an existing key: no bucket growth in steady state
					e.blockRows[ent.blk] = left
				} else {
					delete(e.blockRows, ent.blk)
					ent.blk.Release()
				}
			}
		case ent.owned:
			e.pool.Put(ent.t)
		}
		e.log[i] = pullEntry{}
	}
	n := copy(e.log, e.log[over:])
	for i := n; i < len(e.log); i++ {
		e.log[i] = pullEntry{}
	}
	e.log = e.log[:n]
	e.base += int64(over)
}

// Register creates a client cursor positioned at the current log end
// (clients see results produced after they register; use RegisterAt(0) to
// replay history).
func (e *PullEgress) Register() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	e.cursors[id] = e.base + int64(len(e.log))
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
	if end := e.base + int64(len(e.log)); pos > end {
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
		cur = e.base
	}
	start := int(cur - e.base)
	results = make([]*tuple.Tuple, 0, len(e.log)-start)
	for i := start; i < len(e.log); i++ {
		if b := e.log[i].blk; b != nil {
			// Columnar rows materialize on fetch as independent copies;
			// the block itself stays owned by the egress (it may back
			// other unfetched rows) and is released on age-out as usual.
			results = append(results, b.Row(int(e.log[i].row)))
			continue
		}
		// The client holds the pointer from here on: the egress no longer
		// owns the tuple's memory.
		e.log[i].owned = false
		results = append(results, e.log[i].t)
	}
	e.cursors[id] = e.base + int64(len(e.log))
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
	return len(e.log)
}

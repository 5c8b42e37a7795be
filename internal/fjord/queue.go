// Package fjord implements the Fjords inter-module communication API
// (§2.3): bounded queues connecting dataflow modules, supporting both
// "push" (non-blocking) and "pull" (blocking) modalities so that modules
// can be written agnostic to whether their inputs and outputs are streamed
// or static. A pull-queue uses blocking dequeue/enqueue; a push-queue uses
// non-blocking operations, returning control to the consumer when empty so
// it can pursue other computation; Exchange semantics combine a blocking
// dequeue with a non-blocking enqueue.
package fjord

import (
	"sync"

	"telegraphcq/internal/tuple"
)

// Modality selects the blocking behaviour of a connection.
type Modality uint8

// Connection modalities.
const (
	// Pull blocks on both enqueue (when full) and dequeue (when empty),
	// like an iterator boundary in a traditional engine.
	Pull Modality = iota
	// Push never blocks: enqueue fails when full, dequeue fails when
	// empty, letting the caller yield or do other work.
	Push
	// Exchange blocks consumers on empty but never blocks producers,
	// reproducing Graefe's Exchange semantics [Graf93].
	Exchange
)

// String names the modality.
func (m Modality) String() string {
	switch m {
	case Pull:
		return "pull"
	case Push:
		return "push"
	case Exchange:
		return "exchange"
	default:
		return "unknown"
	}
}

// Queue is a bounded MPMC tuple queue. The zero value is not usable; create
// queues with NewQueue. All methods are safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []*tuple.Tuple
	head     int
	size     int
	closed   bool
	// wake, set by Notify, rouses the consumer after a push or a close.
	wake func()

	// stats
	enqueued int64
	dropped  int64
	refused  int64 // tuples a closed queue turned away
}

// NewQueue returns a queue with the given capacity (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{buf: make([]*tuple.Tuple, capacity)}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the current number of queued tuples.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Notify registers wake to be called once per push call that enqueued
// anything, and on Close, after the queue lock is released: how a consumer
// that polls with Pop/PopMany — an Execution Object — parks while the queue
// is empty instead of sleeping and re-polling. wake must not block. A
// blocking push that waits for room mid-batch calls it before waiting, so
// the consumer it waits on is awake.
func (q *Queue) Notify(wake func()) {
	q.mu.Lock()
	q.wake = wake
	q.mu.Unlock()
}

// unlockWake releases the lock and, if rouse is set, then calls the wake
// function registered with Notify.
func (q *Queue) unlockWake(rouse bool) {
	wake := q.wake
	q.mu.Unlock()
	if rouse && wake != nil {
		wake()
	}
}

// Push enqueues without blocking. It returns false when the queue is full
// or closed; callers may spool, drop, or retry. Only a full queue counts
// the tuple as dropped: a closed one has no consumer left to fall behind.
func (q *Queue) Push(t *tuple.Tuple) bool {
	q.mu.Lock()
	if q.closed {
		q.refused++
		q.mu.Unlock()
		return false
	}
	if q.size == len(q.buf) {
		q.dropped++
		q.mu.Unlock()
		return false
	}
	q.put(t)
	q.unlockWake(true)
	return true
}

// PushWait enqueues, blocking while the queue is full. It returns false if
// the queue was closed before the tuple could be enqueued.
func (q *Queue) PushWait(t *tuple.Tuple) bool {
	q.mu.Lock()
	for q.size == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.refused++
		q.mu.Unlock()
		return false
	}
	q.put(t)
	q.unlockWake(true)
	return true
}

func (q *Queue) put(t *tuple.Tuple) {
	q.buf[(q.head+q.size)%len(q.buf)] = t
	q.size++
	q.enqueued++
	q.notEmpty.Signal()
}

// Pop dequeues without blocking. ok is false when the queue is momentarily
// empty (or closed and drained); use Drained to distinguish.
func (q *Queue) Pop() (t *tuple.Tuple, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil, false
	}
	return q.take(), true
}

// PopWait dequeues, blocking while the queue is empty. ok is false only
// when the queue has been closed and fully drained.
func (q *Queue) PopWait() (t *tuple.Tuple, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.size == 0 {
		return nil, false
	}
	return q.take(), true
}

func (q *Queue) take() *tuple.Tuple {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	q.notFull.Signal()
	return t
}

// PushMany enqueues tuples under one lock acquisition without blocking,
// stopping at the first tuple that does not fit (queue full) or when the
// queue is closed. It returns the number enqueued; the remainder count as
// dropped, mirroring Push's shed-at-boundary contract.
func (q *Queue) PushMany(ts []*tuple.Tuple) int {
	q.mu.Lock()
	n := 0
	for _, t := range ts {
		if q.closed {
			q.refused += int64(len(ts) - n)
			break
		}
		if q.size == len(q.buf) {
			q.dropped += int64(len(ts) - n)
			break
		}
		q.put(t)
		n++
	}
	q.unlockWake(n > 0)
	return n
}

// PushWaitMany enqueues every tuple, blocking while the queue is full. It
// returns the number enqueued, which is short only when the queue is
// closed mid-batch.
func (q *Queue) PushWaitMany(ts []*tuple.Tuple) int {
	q.mu.Lock()
	n, roused := 0, 0
	for _, t := range ts {
		for q.size == len(q.buf) && !q.closed {
			if n > roused && q.wake != nil {
				// The consumer must drain what this call queued to make room.
				roused = n
				q.unlockWake(true)
				q.mu.Lock()
				continue
			}
			q.notFull.Wait()
		}
		if q.closed {
			q.refused += int64(len(ts) - n)
			break
		}
		q.put(t)
		n++
	}
	q.unlockWake(n > roused)
	return n
}

// PopMany dequeues up to len(dst) tuples under one lock acquisition
// without blocking, returning the number written to dst (0 when the queue
// is momentarily empty or drained).
func (q *Queue) PopMany(dst []*tuple.Tuple) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for n < len(dst) && q.size > 0 {
		dst[n] = q.take()
		n++
	}
	return n
}

// PopWaitMany blocks until at least one tuple is available (or the queue
// is closed), then dequeues up to len(dst) tuples in one go. It returns 0
// only when the queue has been closed and fully drained.
func (q *Queue) PopWaitMany(dst []*tuple.Tuple) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	n := 0
	for n < len(dst) && q.size > 0 {
		dst[n] = q.take()
		n++
	}
	return n
}

// Close marks end-of-stream. Blocked consumers wake and drain; subsequent
// enqueues fail. Closing twice is harmless.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.unlockWake(true)
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Drained reports whether the queue is closed and empty: the consumer will
// never see another tuple.
func (q *Queue) Drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && q.size == 0
}

// Refused returns the number of tuples pushed after Close: work a producer
// did for a consumer that had already gone.
func (q *Queue) Refused() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.refused
}

// Stats returns the lifetime enqueue count and the number of non-blocking
// pushes a full queue rejected.
func (q *Queue) Stats() (enqueued, dropped int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.enqueued, q.dropped
}

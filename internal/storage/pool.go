package storage

import (
	"container/list"
	"sync"

	"telegraphcq/internal/tuple"
)

// BufferPool caches decoded segments with LRU replacement, mediating every
// disk read the way PostgreSQL's buffer pool does (Fig. 4). The pool must
// absorb bursty new segments while still serving windowed re-reads of
// historical ones — the tension §4.3 calls out for streaming storage.
type BufferPool struct {
	mu    sync.Mutex
	cap   int // max resident segments
	lru   *list.List
	pages map[string]*list.Element
	// inflight single-flights concurrent misses on the same key: the first
	// reader decodes, later arrivals wait on its result instead of issuing
	// duplicate disk reads (no decode stampede when many queries fault the
	// same historical segment at once).
	inflight map[string]*inflightRead

	hits    int64
	misses  int64
	decodes int64
}

type poolEntry struct {
	key    string
	tuples []*tuple.Tuple
}

type inflightRead struct {
	done   chan struct{}
	tuples []*tuple.Tuple
	err    error
	// stale is set by Invalidate racing the read: the segment file was
	// deleted or superseded, so the result must not enter the cache.
	stale bool
}

// NewBufferPool creates a pool holding at most capSegments segments.
func NewBufferPool(capSegments int) *BufferPool {
	if capSegments < 1 {
		capSegments = 1
	}
	return &BufferPool{
		cap:      capSegments,
		lru:      list.New(),
		pages:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightRead),
	}
}

// Get returns the decoded tuples of the segment at key, reading from disk
// on a miss. Concurrent misses on one key perform a single disk read.
func (p *BufferPool) Get(key string) ([]*tuple.Tuple, error) {
	p.mu.Lock()
	if el, ok := p.pages[key]; ok {
		p.lru.MoveToFront(el)
		p.hits++
		out := el.Value.(*poolEntry).tuples
		p.mu.Unlock()
		return out, nil
	}
	p.misses++
	if fl, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		<-fl.done
		return fl.tuples, fl.err
	}
	fl := &inflightRead{done: make(chan struct{})}
	p.inflight[key] = fl
	p.mu.Unlock()

	// Read outside the lock: disk I/O must not serialize the whole pool.
	fl.tuples, fl.err = readSegmentFile(key)

	p.mu.Lock()
	p.decodes++
	delete(p.inflight, key)
	if fl.err == nil && !fl.stale {
		el := p.lru.PushFront(&poolEntry{key: key, tuples: fl.tuples})
		p.pages[key] = el
		for p.lru.Len() > p.cap {
			victim := p.lru.Back()
			p.lru.Remove(victim)
			delete(p.pages, victim.Value.(*poolEntry).key)
		}
	}
	p.mu.Unlock()
	close(fl.done)
	return fl.tuples, fl.err
}

// Invalidate drops a cached segment (after eviction deletes its file). A
// read of the key still in flight is marked stale so its result cannot
// re-enter the cache after the file is gone.
func (p *BufferPool) Invalidate(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.pages[key]; ok {
		p.lru.Remove(el)
		delete(p.pages, key)
	}
	if fl, ok := p.inflight[key]; ok {
		fl.stale = true
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (p *BufferPool) HitRate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Counters returns raw hit/miss counts.
func (p *BufferPool) Counters() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Decodes returns how many disk reads actually decoded a segment — under
// single-flight this can be far below the miss count.
func (p *BufferPool) Decodes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.decodes
}

// Resident returns the number of cached segments.
func (p *BufferPool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

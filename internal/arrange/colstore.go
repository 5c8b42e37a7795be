package arrange

import (
	"sync"

	"telegraphcq/internal/tuple"
)

// colSegRows is the row capacity of one ColumnStore segment. Large enough
// that segment-header allocation amortizes to nothing per row, small
// enough that a segment stays cache-friendly to scan.
const colSegRows = 1024

// RowRef addresses one stored row: segment index plus row index within
// the segment. Refs are stable forever — segments are append-only and
// never compacted — so probe candidates can be verified without copying.
type RowRef struct {
	Seg int32
	Row int32
}

// ColumnStore is the columnar counterpart of Arrangement: wide rows
// stored struct-of-arrays in a chain of Block segments, with a hash index
// on the key column mapping to RowRefs instead of tuple pointers. It is
// the storage half of a columnar SteM and the natural substrate for
// future columnar arrangements (ROADMAP item 5's archive shares the same
// segment layout).
//
// The same single-writer discipline as Arrangement applies: one goroutine
// appends, any number read. Rows are never mutated after append, so
// readers verify join predicates directly against segment columns with no
// copy and no per-candidate closure call.
type ColumnStore struct {
	name   string
	width  int
	keyCol int
	arena  *tuple.Arena

	mu    sync.RWMutex
	segs  []*tuple.Block
	index map[uint64][]RowRef
	rows  int

	inserts int64
}

// NewColumnStore creates an empty store of the given wide-row width,
// indexed on keyCol. Segments are carved from arena (required).
func NewColumnStore(name string, width, keyCol int, arena *tuple.Arena) *ColumnStore {
	return &ColumnStore{
		name:   name,
		width:  width,
		keyCol: keyCol,
		arena:  arena,
		index:  make(map[uint64][]RowRef),
	}
}

// Name returns the store's label.
func (s *ColumnStore) Name() string { return s.name }

// Len returns the number of stored rows.
func (s *ColumnStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows
}

// Inserts returns the lifetime insert count.
func (s *ColumnStore) Inserts() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inserts
}

// tailLocked returns the open segment, growing the chain as needed.
//
//tcq:hotpath
func (s *ColumnStore) tailLocked() *tuple.Block {
	if n := len(s.segs); n > 0 && !s.segs[n-1].Full() {
		return s.segs[n-1]
	}
	seg := s.arena.Get(s.width, colSegRows)
	s.segs = append(s.segs, seg)
	return seg
}

// AppendFrom copies the selected rows of b into the store in one pass —
// survivor selection by mask, column-contiguous writes, one index entry
// per row. Writer-only.
//
//tcq:hotpath
func (s *ColumnStore) AppendFrom(b *tuple.Block, sel *tuple.Mask) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := b.Col(s.keyCol)
	for i := 0; i < b.Len(); i++ {
		if !sel.Test(i) {
			continue
		}
		seg := s.tailLocked()
		si := int32(len(s.segs) - 1)
		row := int32(seg.AppendRowFrom(b, i))
		h := key[i].Hash()
		//lint:ignore alloccheck hash-index insert: amortized O(1) bucket growth per stored row, held under one alloc per fed tuple by core.TestColumnarSteadyStateAllocs
		s.index[h] = append(s.index[h], RowRef{Seg: si, Row: row})
		s.rows++
		s.inserts++
	}
}

// Candidates returns the refs whose key column hashes to hash. The
// returned slice is an immutable snapshot: the writer only ever appends
// to a fresh slice header, and referenced rows are never rewritten, so
// readers may verify against it after the lock is dropped.
//
//tcq:hotpath
func (s *ColumnStore) Candidates(hash uint64) []RowRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index[hash]
}

// Seg returns segment i for candidate verification.
func (s *ColumnStore) Seg(i int32) *tuple.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs[i]
}

// Segments calls fn over every segment in insertion order (scan path).
//
//tcq:hotpath
func (s *ColumnStore) Segments(fn func(*tuple.Block)) {
	s.mu.RLock()
	segs := s.segs
	s.mu.RUnlock()
	for _, seg := range segs {
		fn(seg)
	}
}

// Release returns every segment to the arena. The store must not be used
// afterwards.
func (s *ColumnStore) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.segs {
		seg.Release()
		s.segs[i] = nil
	}
	s.segs = nil
	s.index = nil
	s.rows = 0
}

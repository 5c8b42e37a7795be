package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"telegraphcq/internal/tuple"
)

// segMeta describes one on-disk segment: a contiguous run of tuples flushed
// together, in arrival order, whose TS lie in [minT, maxT]. Segments are
// immutable once written.
type segMeta struct {
	id    int64
	minT  int64
	maxT  int64
	count int
	bytes int64 // the file's size

	// pins counts the scans reading the segment; a segment dropped while
	// pinned keeps its file until the last of them unpins it.
	pins    int
	dropped bool
}

// SegmentStore spools one stream to disk as a log of segments. Writes are
// strictly sequential (append to the head segment, flush when full);
// reads fetch whole segments through the buffer pool.
type SegmentStore struct {
	mu      sync.Mutex
	dir     string
	name    string
	segSize int // tuples per segment
	pool    *BufferPool

	// head is the open head segment, newest data, encoded in memory: Append
	// keeps no caller tuple. headMin and headMax bound its TS. A head whose
	// flush failed keeps growing until a flush succeeds.
	head             *Log
	headMin, headMax int64
	segs             []*segMeta // closed segments, ascending id
	nextID           int64
	// retain, when positive, is how many rows a flush leaves the store
	// at least: it ages out the oldest whole segments past that.
	retain int

	appended   int64
	flushed    int64
	evicted    int64 // rows in segments dropped since
	segBytes   int64 // the size of the segment files held
	removeErrs int64 // dropped segments whose file could not be removed
}

// NewSegmentStore creates a store for stream name under dir, flushing
// segments of segSize tuples through pool.
func NewSegmentStore(dir, name string, segSize int, pool *BufferPool) (*SegmentStore, error) {
	if segSize < 1 {
		segSize = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &SegmentStore{dir: dir, name: name, segSize: segSize, pool: pool, head: NewLog(4 << 10)}, nil
}

func (s *SegmentStore) segPath(id int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%06d.seg", s.name, id))
}

// Append spools one tuple (keyed by TS; callers feeding logical time set
// TS = Seq upstream). It encodes t, so the caller may reuse it once Append
// returns. Out-of-order arrivals are tolerated: a scan sorts by TS.
func (s *SegmentStore) Append(t *tuple.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head.Len() == 0 || t.TS < s.headMin {
		s.headMin = t.TS
	}
	if s.head.Len() == 0 || t.TS > s.headMax {
		s.headMax = t.TS
	}
	s.head.Append(t)
	s.appended++
	if s.head.Len() >= s.segSize {
		return s.flushLocked()
	}
	return nil
}

// Flush forces the open head segment to disk.
func (s *SegmentStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *SegmentStore) flushLocked() error {
	if s.head.Len() == 0 {
		return nil
	}
	meta := &segMeta{
		id:    s.nextID,
		minT:  s.headMin,
		maxT:  s.headMax,
		count: s.head.Len(),
	}
	path := s.segPath(meta.id)
	f, err := os.Create(path)
	if err == nil {
		meta.bytes = s.head.size()
		err = s.head.writeTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("storage: flush segment: %w", err)
	}
	s.nextID++
	s.segs = append(s.segs, meta)
	s.flushed += int64(meta.count)
	s.segBytes += meta.bytes
	s.head = NewLog(4 << 10)
	s.ageLocked()
	return nil
}

// Retain bounds the store by rows: from the next flush on, it drops its
// oldest whole segments while the segments after them and the head still
// hold at least rows tuples (0 keeps every segment).
func (s *SegmentStore) Retain(rows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = rows
}

// ageLocked applies the retain bound through evictBeforeLocked: the
// oldest segments the bound lets go are those before the first one it
// keeps, and the watermark is the smallest maxT among the kept ones, so
// no kept segment falls below it. An out-of-order segment the bound lets
// go whose maxT reaches that watermark stays until a later flush.
func (s *SegmentStore) ageLocked() {
	if s.retain <= 0 {
		return
	}
	held := s.flushed - s.evicted + int64(s.head.Len())
	n := 0
	for ; n < len(s.segs) && held-int64(s.segs[n].count) >= int64(s.retain); n++ {
		held -= int64(s.segs[n].count)
	}
	if n == 0 {
		return
	}
	watermark := int64(math.MaxInt64)
	for _, m := range s.segs[n:] {
		watermark = min(watermark, m.maxT)
	}
	s.evictBeforeLocked(watermark)
}

// readSegment loads a segment's tuples, via the buffer pool when present.
func (s *SegmentStore) readSegment(m *segMeta) ([]*tuple.Tuple, error) {
	key := s.segPath(m.id)
	if s.pool != nil {
		return s.pool.Get(key)
	}
	return readSegmentFile(key)
}

// readSegmentFile decodes a segment file into fresh tuples, read as a
// one-chunk Log.
func readSegmentFile(path string) ([]*tuple.Tuple, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read segment: %w", err)
	}
	l := Log{chunks: []logChunk{{buf: buf}}}
	out, err := l.Decode(Mark{}, math.MinInt64, math.MaxInt64)
	if err != nil {
		return nil, fmt.Errorf("storage: segment %s: %w", path, err)
	}
	return out, nil
}

// ScanRange returns all spooled tuples with TS in [left, right], oldest
// first — the "scanner" operator driven by window descriptors (§4.2.3).
// It reads the store as it was when called: the segments it lists are
// pinned, so a flush that ages one out meanwhile defers deleting its file
// to the scan's end.
func (s *SegmentStore) ScanRange(left, right int64) ([]*tuple.Tuple, error) {
	s.mu.Lock()
	var segs []*segMeta
	for _, m := range s.segs {
		if m.maxT >= left && m.minT <= right {
			m.pins++
			segs = append(segs, m)
		}
	}
	head := s.head.Snapshot()
	s.mu.Unlock()
	defer s.unpin(segs)

	var out []*tuple.Tuple
	for _, m := range segs {
		ts, err := s.readSegment(m)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if t.TS >= left && t.TS <= right {
				out = append(out, t)
			}
		}
	}
	ts, err := head.Decode(head.Locate(0, Mark{}), left, right)
	if err != nil {
		return nil, err
	}
	out = append(out, ts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out, nil
}

// unpin ends a scan's hold on segs, deleting the files of those dropped
// meanwhile that no other scan still reads.
func (s *SegmentStore) unpin(segs []*segMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range segs {
		if m.pins--; m.pins == 0 && m.dropped {
			s.removeLocked(m)
		}
	}
}

// EvictBefore drops whole segments whose newest tuple is older than
// watermark, deleting their files (once no scan reads them). Partial segments are retained (windows
// may still need part of them). It returns the number of tuples dropped.
func (s *SegmentStore) EvictBefore(watermark int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictBeforeLocked(watermark)
}

// evictBeforeLocked is EvictBefore under s.mu. A dropped segment leaves
// segs at once; its file goes now, or when the last scan reading it ends.
func (s *SegmentStore) evictBeforeLocked(watermark int64) int {
	dropped := 0
	keep := s.segs[:0]
	for _, m := range s.segs {
		if m.maxT >= watermark {
			keep = append(keep, m)
			continue
		}
		s.evicted += int64(m.count)
		s.segBytes -= m.bytes
		dropped += m.count
		if m.dropped = true; m.pins == 0 {
			s.removeLocked(m)
		}
	}
	clear(s.segs[len(keep):])
	s.segs = keep
	return dropped
}

// removeLocked deletes a dropped segment's file and forgets its pages. The
// rows were spooled before, so a failed remove is counted
// (Stats.RemoveErrors) and leaves an orphan file, never an error for the
// Append whose flush aged the segment out. A file already gone counts as
// removed.
func (s *SegmentStore) removeLocked(m *segMeta) {
	path := s.segPath(m.id)
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.removeErrs++
	}
	if s.pool != nil {
		s.pool.Invalidate(path)
	}
}

// Stats describes store occupancy: Rows and Bytes are what the store holds
// now, its segments' files plus the head's memory.
type Stats struct {
	Appended   int64
	Flushed    int64
	Segments   int
	HeadTuples int
	Rows       int64
	Bytes      int64
	// RemoveErrors counts dropped segments whose file could not be
	// deleted; each is an orphan file on disk.
	RemoveErrors int64
}

// Stats returns a snapshot.
func (s *SegmentStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appended:     s.appended,
		Flushed:      s.flushed,
		Segments:     len(s.segs),
		HeadTuples:   s.head.Len(),
		Rows:         s.flushed - s.evicted + int64(s.head.Len()),
		Bytes:        s.segBytes + int64(s.head.Bytes()),
		RemoveErrors: s.removeErrs,
	}
}

package storage

import (
	"fmt"
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

	appended int64
	flushed  int64
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
	s.head = NewLog(4 << 10)
	return nil
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
func (s *SegmentStore) ScanRange(left, right int64) ([]*tuple.Tuple, error) {
	s.mu.Lock()
	segs := append([]*segMeta(nil), s.segs...)
	head := s.head.Snapshot()
	s.mu.Unlock()

	var out []*tuple.Tuple
	for _, m := range segs {
		if m.maxT < left || m.minT > right {
			continue
		}
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

// EvictBefore drops whole segments whose newest tuple is older than
// watermark, deleting their files. Partial segments are retained (windows
// may still need part of them). It returns the number of tuples dropped.
func (s *SegmentStore) EvictBefore(watermark int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	keep := s.segs[:0]
	for _, m := range s.segs {
		if m.maxT < watermark {
			path := s.segPath(m.id)
			if err := os.Remove(path); err != nil {
				return dropped, fmt.Errorf("storage: evict: %w", err)
			}
			if s.pool != nil {
				s.pool.Invalidate(path)
			}
			dropped += m.count
			continue
		}
		keep = append(keep, m)
	}
	s.segs = keep
	return dropped, nil
}

// Stats describes store occupancy.
type Stats struct {
	Appended   int64
	Flushed    int64
	Segments   int
	HeadTuples int
}

// Stats returns a snapshot.
func (s *SegmentStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appended:   s.appended,
		Flushed:    s.flushed,
		Segments:   len(s.segs),
		HeadTuples: s.head.Len(),
	}
}

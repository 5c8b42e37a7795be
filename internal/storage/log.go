package storage

import (
	"fmt"
	"io"

	"telegraphcq/internal/tuple"
)

// Chunk sizes of a Log: the first chunk is small so a stream that sees a
// handful of rows stays cheap, each later one doubles up to the cap. A full
// chunk is never copied or grown, only followed by the next.
const (
	firstChunk = 4 << 10
	maxChunk   = 64 << 10
)

// Log is an append-only in-memory log of stamped tuples, each encoded with
// the segment codec into pointer-free byte chunks: a stream's history when
// it is not spooled, and the open head segment of a SegmentStore. It keeps
// values, not the caller's tuples, so a tuple may be reused the moment
// Append returns. A Log does no locking: its owner serialises Append with
// View, and a view, once taken, is read without the owner's lock.
type Log struct {
	chunks  [][]byte
	rows    int
	maxRows int
	bytes   int    // capacity of every chunk
	scratch []byte // one encoded row, before it is placed in a chunk
}

// NewLog returns an empty log that records at most maxRows rows.
func NewLog(maxRows int) *Log { return &Log{maxRows: maxRows} }

// Append encodes t at the end of the log. It reports false, keeping
// nothing, once the log holds maxRows rows. A row never spans two chunks:
// one that does not fit the open chunk starts the next, sized to hold it.
func (l *Log) Append(t *tuple.Tuple) bool {
	if l.rows >= l.maxRows {
		return false
	}
	l.scratch = AppendRow(l.scratch[:0], t)
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < len(l.scratch) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), maxChunk)
		}
		size = max(size, len(l.scratch))
		l.chunks = append(l.chunks, make([]byte, 0, size))
		l.bytes += size
		last++
	}
	l.chunks[last] = append(l.chunks[last], l.scratch...)
	l.rows++
	return true
}

// Len returns how many rows the log holds.
func (l *Log) Len() int { return l.rows }

// Bytes returns the capacity of the log's chunks: the memory it holds.
func (l *Log) Bytes() int { return l.bytes }

// View returns a snapshot of the rows appended so far. Chunks are
// append-only, so the snapshot stays valid while Append goes on.
func (l *Log) View() LogView {
	return LogView{chunks: append([][]byte(nil), l.chunks...), rows: l.rows}
}

// LogView is a snapshot of a Log, decoded by Scan.
type LogView struct {
	chunks [][]byte
	rows   int
}

// Scan decodes the snapshot's rows with TS in [left, right], in arrival
// order, into fresh tuples the caller owns.
func (v LogView) Scan(left, right int64) ([]*tuple.Tuple, error) {
	out := make([]*tuple.Tuple, 0, v.rows)
	for _, c := range v.chunks {
		for off := 0; off < len(c); {
			t, n, err := readTuple(c[off:])
			if err != nil {
				return nil, fmt.Errorf("storage: log at %d: %w", off, err)
			}
			off += n
			if t.TS >= left && t.TS <= right {
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// writeTo writes the log's encoded rows, in order, to w: a segment file's
// contents.
func (l *Log) writeTo(w io.Writer) error {
	for _, c := range l.chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

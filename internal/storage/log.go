package storage

import (
	"io"
	"slices"

	"telegraphcq/internal/tuple"
)

// maxChunk caps the doubling of a Log's chunks.
const maxChunk = 64 << 10

// Log is a chunked row container. It keeps values, not the caller's tuples:
// rows are encoded into pointer-free chunks. A row never spans two chunks;
// a chunk is allocated whole and never regrown, each twice the last from the
// first size NewLog is given up to maxChunk (at least a row's size), and
// none exists before the first Append. Rows are addressed by position,
// counted from the first appended. TruncateFront ages rows out of the front,
// and a chunk it empties becomes the spare the next chunk reuses; Compact
// drops rows anywhere, moving the survivors down. A Log does no locking:
// its owner serialises every call.
type Log struct {
	chunks  []logChunk
	spare   []byte // an emptied chunk, kept for the next one to reuse
	first   int    // size of the first chunk
	dropped int32  // chunks truncated away: chunks[0] is chunk number dropped
	skip    int    // rows of chunks[0] truncated away
	start   int64  // position of the oldest row held
	n       int    // rows held
	bytes   int    // capacity of every chunk and of the spare
	scratch []byte // one encoded row, before it is placed in a chunk
}

// logChunk is a run of encoded rows: rows of them, holding vals values, the
// first at position first.
type logChunk struct {
	buf        []byte
	first      int64
	rows, vals int
}

// Loc is where a row starts: its chunk, numbered from the first the log
// opened, and its offset there. It holds until the row is truncated or a
// Compact moves it.
type Loc struct{ chunk, off int32 }

// Mark is a position and where the rows from it start: a Loc and the values
// its chunk holds before it. The zero Mark places position 0. A mark
// outlives appends and truncation; Compact voids it.
type Mark struct {
	Pos  int64
	at   Loc
	vals int
}

// NewLog returns an empty log whose first chunk will be first bytes.
func NewLog(first int) *Log { return &Log{first: first} }

// Append encodes t behind the newest row and returns where it starts. The
// caller may reuse t once Append returns.
func (l *Log) Append(t *tuple.Tuple) Loc {
	l.scratch = AppendRow(l.scratch[:0], t)
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last].buf)-len(l.chunks[last].buf) < len(l.scratch) {
		l.open(len(l.scratch))
		last++
	}
	c := &l.chunks[last]
	at := Loc{l.dropped + int32(last), int32(len(c.buf))}
	c.buf = append(c.buf, l.scratch...)
	c.rows++
	c.vals += len(t.Vals)
	l.n++
	return at
}

// open appends the chunk a row of need bytes goes to: the spare if large
// enough, else a new chunk by the doubling rule. Audited amortization point:
// O(log maxChunk) allocations, then one per maxChunk bytes of growth.
//
//tcq:coldpath
func (l *Log) open(need int) {
	c := logChunk{buf: l.spare, first: l.start + int64(l.n)}
	if l.spare = nil; cap(c.buf) < need {
		size := l.first
		if last := len(l.chunks) - 1; last >= 0 {
			size = min(2*cap(l.chunks[last].buf), maxChunk)
		}
		size = max(size, need)
		l.bytes += size - cap(c.buf)
		c.buf = make([]byte, 0, size)
	}
	l.chunks = append(l.chunks, c)
}

// Row returns the encoded row at at, and the rest of its chunk after it.
func (l *Log) Row(at Loc) []byte { return l.chunks[at.chunk-l.dropped].buf[at.off:] }

// Len returns how many rows the log holds.
func (l *Log) Len() int { return l.n }

// Start returns the position of the oldest row held: the rows truncated.
func (l *Log) Start() int64 { return l.start }

// Bytes returns the capacity of the chunks and the spare.
func (l *Log) Bytes() int { return l.bytes }

// End returns the mark after the newest row.
func (l *Log) End() Mark {
	m := Mark{Pos: l.start + int64(l.n)}
	if last := len(l.chunks) - 1; last >= 0 {
		c := &l.chunks[last]
		m.at, m.vals = Loc{l.dropped + int32(last), int32(len(c.buf))}, c.vals
	}
	return m
}

// Locate returns the mark of pos clamped to [Start, End]. hint, a
// mark from Locate or End, is used when it marks pos in a chunk still held;
// otherwise Locate steps over the rows of pos's chunk before it.
func (l *Log) Locate(pos int64, hint Mark) Mark {
	end := l.End()
	if pos = max(pos, l.start); pos >= end.Pos {
		return end
	}
	if hint.Pos == pos && hint.at.chunk >= l.dropped {
		return hint
	}
	j := len(l.chunks) - 1
	for pos < l.chunks[j].first {
		j--
	}
	m := Mark{Pos: pos, at: Loc{l.dropped + int32(j), 0}}
	for k := l.chunks[j].first; k < pos; k++ {
		n, vals := rowSize(l.chunks[j].buf[m.at.off:])
		m.at.off += int32(n)
		m.vals += vals
	}
	return m
}

// chunkOf is the index of mark m's chunk (0 when the log holds none).
func (l *Log) chunkOf(m Mark) int { return max(0, int(m.at.chunk-l.dropped)) }

// AppendTo appends the encoded rows from the mark from to the end to
// dst, growing it once, and returns how many rows and values they are.
func (l *Log) AppendTo(dst []byte, from Mark) (out []byte, rows, vals int) {
	j, size := l.chunkOf(from), 0
	if j < len(l.chunks) {
		size, vals = -int(from.at.off), -from.vals
	}
	for _, c := range l.chunks[j:] {
		size, vals = size+len(c.buf), vals+c.vals
	}
	dst = slices.Grow(dst, size)
	for off := int(from.at.off); j < len(l.chunks); j, off = j+1, 0 {
		dst = append(dst, l.chunks[j].buf[off:]...)
	}
	return dst, int(l.start + int64(l.n) - from.Pos), vals
}

// Decode decodes the rows from the mark from to the end with TS in [left,
// right] into fresh tuples the caller owns. A first pass counts those kept,
// so it makes three allocations however many there are (the pointers, the
// tuples, their values), plus one per string value.
func (l *Log) Decode(from Mark, left, right int64) ([]*tuple.Tuple, error) {
	var out []*tuple.Tuple
	var tups []tuple.Tuple
	var slab []tuple.Value
	rows, vals := 0, 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			out, tups, slab = make([]*tuple.Tuple, 0, rows), make([]tuple.Tuple, rows), make([]tuple.Value, 0, vals)
		}
		for j, off := l.chunkOf(from), int(from.at.off); j < len(l.chunks); j, off = j+1, 0 {
			for buf := l.chunks[j].buf[off:]; len(buf) > 0; {
				n, v := rowSize(buf)
				_, ts := ReadStamp(buf)
				switch {
				case n == 0:
					return nil, corrupt("corrupt row")
				case ts < left || ts > right:
				case pass == 0:
					rows, vals = rows+1, vals+v
				default:
					t := &tups[len(out)]
					slab, _, _ = ReadRow(buf, t, slab) // rowSize stepped it: it decodes
					out = append(out, t)
				}
				buf = buf[n:]
			}
		}
	}
	return out, nil
}

// Snapshot returns a copy reading the rows held now, valid while the log is
// only appended to: an owner takes it under its lock and decodes outside.
func (l *Log) Snapshot() Log {
	s := *l
	s.chunks, s.spare, s.scratch = slices.Clone(l.chunks), nil, nil
	return s
}

// TruncateFront ages out the rows before position pos. A chunk all of
// whose rows have gone becomes the spare, unless the spare is larger.
func (l *Log) TruncateFront(pos int64) {
	if k := int(min(pos, l.start+int64(l.n)) - l.start); k > 0 {
		l.start, l.n, l.skip = l.start+int64(k), l.n-k, l.skip+k
		if l.skip >= l.chunks[0].rows {
			l.retire()
		}
	}
}

// retire drops the front chunks whose rows have all been truncated.
func (l *Log) retire() {
	for len(l.chunks) > 0 && l.skip >= l.chunks[0].rows {
		old := l.chunks[0].buf[:0]
		if cap(old) > cap(l.spare) {
			old, l.spare = l.spare, old
		}
		l.bytes -= cap(old)
		l.skip -= l.chunks[0].rows
		l.chunks = append(l.chunks[:0], l.chunks[1:]...)
		l.dropped++
	}
}

// Compact keeps the rows keep accepts, by index from the oldest held, and
// drops the others: the survivors move down over them in order, never past
// where they were read from, taking the positions from Start on, and moved
// reports each one's new location by its old index. The first chunk stays;
// the chunks after the last survivor's are freed. It returns the encoded
// bytes dropped.
func (l *Log) Compact(keep func(i int) bool, moved func(i int, at Loc)) (dropped int) {
	if len(l.chunks) == 0 {
		return 0
	}
	w, wOff, i := 0, 0, -l.skip
	first, rows, vals := l.start, 0, 0
	seal := func() { // ends the chunk being written
		c := &l.chunks[w]
		c.buf, c.first, c.rows, c.vals = c.buf[:wOff], first, rows, vals
		first, rows, vals = first+int64(rows), 0, 0
	}
	for _, c := range l.chunks {
		for buf := c.buf; len(buf) > 0; i++ {
			n, v := rowSize(buf)
			row := buf[:n]
			if buf = buf[n:]; i < 0 {
				continue // truncated
			} else if !keep(i) {
				dropped += n
				continue
			}
			for cap(l.chunks[w].buf)-wOff < n {
				seal()
				w, wOff = w+1, 0
			}
			copy(l.chunks[w].buf[wOff:wOff+n], row)
			moved(i, Loc{l.dropped + int32(w), int32(wOff)})
			wOff, rows, vals = wOff+n, rows+1, vals+v
		}
	}
	seal()
	for _, c := range l.chunks[w+1:] {
		l.bytes -= cap(c.buf)
	}
	clear(l.chunks[w+1:])
	l.chunks, l.n, l.skip = l.chunks[:w+1], int(first-l.start), 0
	return dropped
}

// writeTo writes the encoded rows, in order, to w: a segment file. The log
// must hold every row it took.
func (l *Log) writeTo(w io.Writer) error {
	for _, c := range l.chunks {
		if _, err := w.Write(c.buf); err != nil {
			return err
		}
	}
	return nil
}

// size returns the bytes writeTo writes.
func (l *Log) size() int64 {
	var n int64
	for _, c := range l.chunks {
		n += int64(len(c.buf))
	}
	return n
}

package tuple

// Block is a struct-of-arrays batch: up to Cap() rows of a fixed-width
// wide schema stored column-major. Where Batch moves []*Tuple — one heap
// object and one cache line per row — a Block carves all of its row state
// out of three slabs obtained in a single Arena.Get:
//
//	vals  [width*cap]Value    — column j occupies vals[j*cap : (j+1)*cap]
//	i64s  [2*cap]int64        — ts then seq
//	u64s  [3*cap]uint64       — src, then ready, then done lineage words
//
// so appending a row touches contiguous per-column memory and allocates
// nothing. Lineage travels as packed words (one ready and one done word
// per row, the same encoding Tuple.Ready/Done use), and survivor
// selection is a Mask over row indices rather than a pointer splice.
//
// A Block is single-owner: the goroutine that Get() it appends, probes,
// and either hands it to an egress (which later Releases it) or Releases
// it directly. Release returns the slabs to the arena's free list and
// poisons the block; any later append or row access panics, and tcqlint's
// ownercheck flags such use statically.
type Block struct {
	width int
	n     int
	rcap  int

	vals []Value
	cols [][]Value // width views into vals, kept for fast column access
	ts   []int64
	seq  []int64
	src  []uint64
	rdy  []uint64
	done []uint64

	arena    *Arena
	released bool
}

// Width returns the number of columns.
func (b *Block) Width() int { return b.width }

// Len returns the number of appended rows.
func (b *Block) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Block) Cap() int { return b.rcap }

// Full reports whether the block has no room for another row.
func (b *Block) Full() bool { return b.n == b.rcap }

// Col returns column j over the appended rows.
func (b *Block) Col(j int) []Value { return b.cols[j][:b.n] }

// TS returns the per-row timestamps.
func (b *Block) TS() []int64 { return b.ts[:b.n] }

// Seq returns the per-row sequence numbers.
func (b *Block) Seq() []int64 { return b.seq[:b.n] }

// Src returns the per-row source-set words.
func (b *Block) Src(i int) SourceSet { return SourceSet(b.src[i]) }

// Ready returns row i's ready lineage word.
func (b *Block) Ready(i int) uint64 { return b.rdy[i] }

// Done returns row i's done lineage word.
func (b *Block) Done(i int) uint64 { return b.done[i] }

// SetLineage stamps row i's lineage words (done must be a subset of
// ready, mirroring Tuple.SetLineage).
//
//tcq:hotpath
func (b *Block) SetLineage(i int, ready, done uint64) {
	if done&^ready != 0 {
		panic("tuple: block lineage done bits outside ready bits")
	}
	b.rdy[i] = ready
	b.done[i] = done
}

// Reset empties the block for reuse, keeping its slabs.
//
//tcq:hotpath
func (b *Block) Reset() {
	b.checkLive()
	b.n = 0
}

func (b *Block) checkLive() {
	if b.released {
		panic("tuple: use of released Block")
	}
}

// AppendRow appends one row given its wide values and metadata; it
// panics when the block is full or released. Returns the new row index.
//
//tcq:hotpath
func (b *Block) AppendRow(vals []Value, ts, seq int64, src SourceSet) int {
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	i := b.n
	for j := 0; j < b.width; j++ {
		b.cols[j][i] = vals[j]
	}
	b.ts[i] = ts
	b.seq[i] = seq
	b.src[i] = uint64(src)
	b.rdy[i] = 0
	b.done[i] = 0
	b.n++
	return i
}

// AppendTuple appends a wide row tuple (len(t.Vals) must equal Width).
//
//tcq:hotpath
func (b *Block) AppendTuple(t *Tuple) int {
	i := b.AppendRow(t.Vals, t.TS, t.Seq, t.Source)
	b.rdy[i] = t.Ready
	b.done[i] = t.Done
	return i
}

// AppendWidened appends a narrow tuple from FROM position pos, placing
// its values at the layout's column offset and zeroing the rest of the
// row — the columnar equivalent of Layout.Widen, with no allocation.
//
//tcq:hotpath
func (b *Block) AppendWidened(l *Layout, pos int, t *Tuple) int {
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	i := b.n
	off := l.Offsets[pos]
	for j := 0; j < b.width; j++ {
		if j >= off && j < off+len(t.Vals) {
			b.cols[j][i] = t.Vals[j-off]
		} else {
			b.cols[j][i] = Value{}
		}
	}
	b.ts[i] = t.TS
	b.seq[i] = t.Seq
	b.src[i] = uint64(SingleSource(pos))
	b.rdy[i] = t.Ready
	b.done[i] = t.Done
	b.n++
	return i
}

// AppendMerged appends the join of row pi of p and row bi of q: columns
// [lo,hi) come from q's row, every other column from p's row. Timestamps
// take the max (the merged row exists once both inputs have arrived) and
// the source sets union — the columnar mirror of Layout.Merge.
//
//tcq:hotpath
func (b *Block) AppendMerged(p *Block, pi int, q *Block, qi, lo, hi int) int {
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	i := b.n
	for j := 0; j < b.width; j++ {
		if j >= lo && j < hi {
			b.cols[j][i] = q.cols[j][qi]
		} else {
			b.cols[j][i] = p.cols[j][pi]
		}
	}
	ts, seq := p.ts[pi], p.seq[pi]
	if q.ts[qi] > ts {
		ts = q.ts[qi]
	}
	if q.seq[qi] > seq {
		seq = q.seq[qi]
	}
	b.ts[i] = ts
	b.seq[i] = seq
	b.src[i] = p.src[pi] | q.src[qi]
	b.rdy[i] = p.rdy[pi] | q.rdy[qi]
	b.done[i] = p.done[pi] | q.done[qi]
	b.n++
	return i
}

// AppendMergedProjected is AppendMerged with projection fused into the
// copy: only the listed source columns land in b, in order (cols may
// index the full merged width; b's width is len(cols)). cols == nil
// means all columns (b's width equals the merged width).
//
//tcq:hotpath
func (b *Block) AppendMergedProjected(p *Block, pi int, q *Block, qi, lo, hi int, cols []int) int {
	if cols == nil {
		return b.AppendMerged(p, pi, q, qi, lo, hi)
	}
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	i := b.n
	for c, sc := range cols {
		if sc >= lo && sc < hi {
			b.cols[c][i] = q.cols[sc][qi]
		} else {
			b.cols[c][i] = p.cols[sc][pi]
		}
	}
	ts, seq := p.ts[pi], p.seq[pi]
	if q.ts[qi] > ts {
		ts = q.ts[qi]
	}
	if q.seq[qi] > seq {
		seq = q.seq[qi]
	}
	b.ts[i] = ts
	b.seq[i] = seq
	b.src[i] = p.src[pi] | q.src[qi]
	b.rdy[i] = p.rdy[pi] | q.rdy[qi]
	b.done[i] = p.done[pi] | q.done[qi]
	b.n++
	return i
}

// AppendRowFrom copies row i of src (same width) into b.
//
//tcq:hotpath
func (b *Block) AppendRowFrom(src *Block, i int) int {
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	j := b.n
	for c := 0; c < b.width; c++ {
		b.cols[c][j] = src.cols[c][i]
	}
	b.ts[j] = src.ts[i]
	b.seq[j] = src.seq[i]
	b.src[j] = src.src[i]
	b.rdy[j] = src.rdy[i]
	b.done[j] = src.done[i]
	b.n++
	return j
}

// AppendProjected appends row i of src keeping only the listed columns,
// in order — projection fused into the copy, so emitted blocks hold
// exactly the client-visible values.
//
//tcq:hotpath
func (b *Block) AppendProjected(src *Block, i int, cols []int) int {
	b.checkLive()
	if b.n == b.rcap {
		panic("tuple: append to full Block")
	}
	j := b.n
	for c, sc := range cols {
		b.cols[c][j] = src.cols[sc][i]
	}
	b.ts[j] = src.ts[i]
	b.seq[j] = src.seq[i]
	b.src[j] = src.src[i]
	b.rdy[j] = src.rdy[i]
	b.done[j] = src.done[i]
	b.n++
	return j
}

// Compact drops every row whose mask bit is clear, preserving the order
// of survivors, and returns the new length. The columnar analogue of
// Batch.PartitionByMask, except dropped rows are overwritten rather than
// retained (block rows have no independent identity to recycle).
//
//tcq:hotpath
func (b *Block) Compact(m *Mask) int {
	b.checkLive()
	w := 0
	for i := 0; i < b.n; i++ {
		if !m.Test(i) {
			continue
		}
		if w != i {
			for c := 0; c < b.width; c++ {
				b.cols[c][w] = b.cols[c][i]
			}
			b.ts[w] = b.ts[i]
			b.seq[w] = b.seq[i]
			b.src[w] = b.src[i]
			b.rdy[w] = b.rdy[i]
			b.done[w] = b.done[i]
		}
		w++
	}
	b.n = w
	return w
}

// Row materializes row i as a freshly allocated Tuple (values copied, so
// the tuple outlives the block). Used at the egress boundary where
// clients expect *Tuple; the hot path never materializes.
func (b *Block) Row(i int) *Tuple {
	b.checkLive()
	t := &Tuple{
		Vals:   make([]Value, b.width),
		TS:     b.ts[i],
		Seq:    b.seq[i],
		Source: SourceSet(b.src[i]),
	}
	for c := 0; c < b.width; c++ {
		t.Vals[c] = b.cols[c][i]
	}
	t.SetLineage(b.rdy[i], b.done[i])
	return t
}

// RowUsing materializes row i through the pool, for callers that will
// recycle the tuple.
//
//tcq:hotpath
func (b *Block) RowUsing(p *Pool, i int) *Tuple {
	b.checkLive()
	t := p.Get(b.width)
	for c := 0; c < b.width; c++ {
		t.Vals[c] = b.cols[c][i]
	}
	t.TS = b.ts[i]
	t.Seq = b.seq[i]
	t.Source = SourceSet(b.src[i])
	t.SetLineage(b.rdy[i], b.done[i])
	return t
}

// Release returns the block's slabs to its arena (a no-op for blocks
// built without one) and poisons the block against further use.
//
//tcq:hotpath
func (b *Block) Release() {
	b.checkLive()
	b.released = true
	if b.arena != nil {
		b.arena.put(b)
	}
}

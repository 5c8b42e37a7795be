package tuple

// Layout fixes the column positions of every base stream participating in a
// query so intermediate tuples keep a stable shape no matter which join
// order the eddy chooses. Each base stream owns a contiguous block of slots
// in a "wide row"; tuples spanning only some streams leave the other blocks
// NULL. This is the engine's "enhanced surrogate object format" (§4.2.2):
// because the join order changes continuously, intermediate tuples would
// otherwise be in a multitude of formats.
type Layout struct {
	Offsets []int     // block start per stream index
	Schemas []*Schema // base schema per stream index
	Wide    *Schema   // the concatenated schema covering all streams
}

// NewLayout builds a layout over the given base schemas, ordered by stream
// index.
func NewLayout(schemas ...*Schema) *Layout {
	l := &Layout{Schemas: schemas}
	off := 0
	var wide *Schema
	for _, s := range schemas {
		l.Offsets = append(l.Offsets, off)
		off += s.Arity()
		if wide == nil {
			wide = NewSchema("", qualify(s)...)
		} else {
			wide = wide.Concat(s)
		}
	}
	if wide == nil {
		wide = NewSchema("")
	}
	l.Wide = wide
	return l
}

// Width returns the total number of wide-row slots.
func (l *Layout) Width() int { return l.Wide.Arity() }

// Streams returns the number of base streams.
func (l *Layout) Streams() int { return len(l.Schemas) }

// Widen places a base tuple of stream index s into a fresh wide row. The
// base tuple's TS/Seq carry over and Source is set to the stream's bit.
func (l *Layout) Widen(s int, base *Tuple) *Tuple {
	out := &Tuple{
		Vals:   make([]Value, l.Width()),
		TS:     base.TS,
		Seq:    base.Seq,
		Source: SingleSource(s),
	}
	copy(out.Vals[l.Offsets[s]:], base.Vals)
	if base.Queries != nil {
		out.Queries = base.Queries.Clone()
	}
	return out
}

// Narrow extracts stream s's block from a wide row.
func (l *Layout) Narrow(s int, wide *Tuple) *Tuple {
	n := l.Schemas[s].Arity()
	out := &Tuple{TS: wide.TS, Seq: wide.Seq, Source: SingleSource(s)}
	out.Vals = make([]Value, n)
	copy(out.Vals, wide.Vals[l.Offsets[s]:l.Offsets[s]+n])
	return out
}

// Merge combines two wide rows spanning disjoint stream sets into one wide
// row spanning their union. Lineage bitmaps intersect (a joined tuple can
// only satisfy queries both inputs could satisfy) into a fresh bitmap,
// except when both inputs hold the very same slice: its intersection with
// itself is itself, and whoever handed both rows one bitmap has declared it
// shared, so the output holds it too. Timestamps take the max. Merge panics
// if the inputs overlap, which indicates a routing bug.
func (l *Layout) Merge(a, b *Tuple) *Tuple {
	return l.mergeInto(&Tuple{Vals: make([]Value, l.Width())}, a, b)
}

// mergeInto writes Merge(a, b) into out, a zeroed row of the layout's
// width.
func (l *Layout) mergeInto(out, a, b *Tuple) *Tuple {
	if a.Source.Overlaps(b.Source) {
		panic("tuple: Merge of overlapping wide rows")
	}
	out.TS = maxInt64(a.TS, b.TS)
	out.Seq = maxInt64(a.Seq, b.Seq)
	out.Source = a.Source.Union(b.Source)
	for s := range l.Schemas {
		src := SingleSource(s)
		var from *Tuple
		switch {
		case a.Source.Contains(src):
			from = a
		case b.Source.Contains(src):
			from = b
		default:
			continue
		}
		off := l.Offsets[s]
		n := l.Schemas[s].Arity()
		copy(out.Vals[off:off+n], from.Vals[off:off+n])
	}
	switch {
	case a.Queries.Same(b.Queries):
		out.Queries = a.Queries
	case a.Queries != nil && b.Queries != nil:
		out.Queries = a.Queries.Clone()
		out.Queries.And(b.Queries)
	case a.Queries != nil:
		out.Queries = a.Queries.Clone()
	case b.Queries != nil:
		out.Queries = b.Queries.Clone()
	}
	return out
}

// Col resolves a qualified column name to its wide-row slot, or -1.
func (l *Layout) Col(name string) int { return l.Wide.ColumnIndex(name) }

// Owner returns the base-stream index owning wide-row slot col, or -1 when
// col is out of range.
func (l *Layout) Owner(col int) int {
	for s := len(l.Offsets) - 1; s >= 0; s-- {
		if col >= l.Offsets[s] {
			if col < l.Offsets[s]+l.Schemas[s].Arity() {
				return s
			}
			return -1
		}
	}
	return -1
}

// OwnerSet returns the SourceSet bit of the stream owning slot col.
func (l *Layout) OwnerSet(col int) SourceSet {
	s := l.Owner(col)
	if s < 0 {
		return 0
	}
	return SingleSource(s)
}

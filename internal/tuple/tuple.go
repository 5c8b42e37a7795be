package tuple

import (
	"strings"
)

// SourceSet is a bitmask recording which base streams a tuple spans. Base
// stream i (as numbered by the plan) contributes bit 1<<i. A SteM over
// stream set T accepts build tuples whose SourceSet equals T and probe
// tuples whose SourceSet is disjoint from T.
type SourceSet uint64

// SingleSource returns the SourceSet for base stream index i.
func SingleSource(i int) SourceSet { return 1 << uint(i) }

// Contains reports whether s includes all streams in t.
func (s SourceSet) Contains(t SourceSet) bool { return s&t == t }

// Overlaps reports whether s and t share any stream.
func (s SourceSet) Overlaps(t SourceSet) bool { return s&t != 0 }

// Union returns the combined source set.
func (s SourceSet) Union(t SourceSet) SourceSet { return s | t }

// Tuple is the unit of dataflow. A Tuple owns its Vals slice. Done and
// Queries are the per-tuple state the paper describes in §2.2: "the state
// must indicate the set of connected modules successfully visited by the
// tuple".
type Tuple struct {
	// Vals holds the column values, positionally matching the Schema the
	// tuple flows under.
	Vals []Value

	// TS is the tuple timestamp in the stream's notion of time (logical
	// sequence number or physical clock), used by window operators.
	TS int64

	// Seq is a monotone arrival sequence number assigned by ingress,
	// providing the logical notion of time (§4.1.1).
	Seq int64

	// Source records which base streams this tuple spans.
	Source SourceSet

	// Done has a bit per eddy module that has handled the tuple. The
	// paper's ready bitmap is not stored: an eddy derives a batch's
	// eligible modules from its module masks and Done. A tuple whose Done
	// covers all required modules is emitted. Capped at 64 modules per
	// eddy, which matches the paper's observation that each eddy provides
	// a bounded scope of adaptivity.
	Done uint64

	// Queries is the CACQ completion bitmap: bit q set means the tuple can
	// still contribute to query q's output. It is routing state: nil outside
	// shared execution and on every delivered row.
	Queries Bitset
}

// New allocates a tuple with the given values.
func New(vals ...Value) *Tuple { return &Tuple{Vals: vals} }

// MarkDone records that the modules in bits have handled the tuple.
func (t *Tuple) MarkDone(bits uint64) { t.Done |= bits }

// ClearLineage resets Done, returning the tuple to the never-routed state
// (used when recycled memory re-enters an eddy).
func (t *Tuple) ClearLineage() { t.Done = 0 }

// Clone deep-copies the tuple, including lineage.
func (t *Tuple) Clone() *Tuple {
	out := &Tuple{
		TS:     t.TS,
		Seq:    t.Seq,
		Source: t.Source,
		Done:   t.Done,
	}
	out.Vals = make([]Value, len(t.Vals))
	copy(out.Vals, t.Vals)
	if t.Queries != nil {
		out.Queries = t.Queries.Clone()
	}
	return out
}

// Concat returns a new tuple spanning the union of t and u: values
// concatenated, Source unioned, TS/Seq taken as the max (the join output is
// only as recent as its newest constituent), and Queries intersected when
// both sides carry lineage.
func (t *Tuple) Concat(u *Tuple) *Tuple {
	out := &Tuple{
		TS:     maxInt64(t.TS, u.TS),
		Seq:    maxInt64(t.Seq, u.Seq),
		Source: t.Source.Union(u.Source),
	}
	out.Vals = make([]Value, 0, len(t.Vals)+len(u.Vals))
	out.Vals = append(out.Vals, t.Vals...)
	out.Vals = append(out.Vals, u.Vals...)
	switch {
	case t.Queries != nil && u.Queries != nil:
		out.Queries = t.Queries.Clone()
		out.Queries.And(u.Queries)
	case t.Queries != nil:
		out.Queries = t.Queries.Clone()
	case u.Queries != nil:
		out.Queries = u.Queries.Clone()
	}
	return out
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// String renders the tuple's values comma-separated.
func (t *Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

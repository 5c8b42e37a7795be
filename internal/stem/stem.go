// Package stem implements State Modules (SteMs, §2.2 and [RDH02]): temporary
// repositories of homogeneous tuples — essentially half of a traditional
// join operator — supporting insert (build), search (probe) and delete
// (eviction). A SteM takes wide-row tuples spanning a fixed set of base
// streams and keeps their values: the stored streams' block of each, its
// Seq, TS and lineage, encoded in an arrangement. Probing with a tuple
// spanning a disjoint stream set decodes each candidate and returns
// concatenated matches satisfying every join predicate evaluable across the
// pair. Hash indexes on the join attribute accelerate equality probes;
// non-equality predicates fall back to verified scans.
package stem

import (
	"fmt"
	"math/bits"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// SteM is a state module: the per-query front of an arrangement
// (internal/arrange), which holds the values — hash index, ordered store and
// eviction. The front keeps what is per-SteM: span checks, the stored block,
// predicate verification, merge construction and counters. It keeps no build tuple: a built row is the caller's again the
// moment BuildBatch returns. It is
// not safe for concurrent use: within an eddy, SteMs are invoked
// synchronously from the routing loop (the paper's non-preemptive Dispatch
// Unit model); Flux partitions SteMs across goroutine-confined nodes.
type SteM struct {
	name   string
	spans  tuple.SourceSet // stream set of stored tuples
	layout *tuple.Layout

	// store holds the values: an arrangement New builds for this SteM
	// alone, or a shared one from WithStore. A stored
	// row is the wide row's block [lo, hi) — the spanned streams' columns.
	store  *arrange.Arrangement
	shared bool
	lo, hi int

	// keyCol is the wide-row slot the hash index is built on (the join
	// attribute); -1 disables indexing and probes scan.
	keyCol int

	// pool, when set (SetRecycler), is where matches are drawn from.
	pool *tuple.Pool
	// narrow is BuildBatch's scratch: each build row's stored block as a row
	// of its own. cand is ProbeBatch's: a wide row each candidate decodes
	// into, and stamp takes the candidate's Seq, TS and lineage.
	narrow     []tuple.Tuple
	narrowRows []*tuple.Tuple
	cand       tuple.Tuple
	stamp      tuple.Tuple

	timeKind window.TimeKind
	windowed bool

	builds, probes, matches, evicted int64
}

// Option configures a SteM.
type Option func(*SteM)

// WithIndex builds a hash index on the given wide-row column.
func WithIndex(keyCol int) Option {
	return func(s *SteM) { s.keyCol = keyCol }
}

// WithWindowEviction orders stored tuples by the given notion of time and
// enables Evict(watermark).
func WithWindowEviction(kind window.TimeKind) Option {
	return func(s *SteM) {
		s.windowed = true
		s.timeKind = kind
	}
}

// WithStore stores into a — a shared arrangement serving many queries'
// SteMs — instead of one the SteM owns. a's own index column (a column of
// the stored block) and ordering apply; WithIndex still says whether probes
// go through the index.
func WithStore(a *arrange.Arrangement) Option {
	return func(s *SteM) { s.store, s.shared = a, true }
}

// New creates a SteM named name holding tuples that span the stream set
// spans under the given layout.
func New(name string, spans tuple.SourceSet, layout *tuple.Layout, opts ...Option) *SteM {
	s := &SteM{
		name:   name,
		spans:  spans,
		layout: layout,
		keyCol: -1,
	}
	for _, o := range opts {
		o(s)
	}
	first, last := bits.TrailingZeros64(uint64(spans)), 63-bits.LeadingZeros64(uint64(spans))
	s.lo, s.hi = layout.Offsets[first], layout.Offsets[last]+layout.Schemas[last].Arity()
	s.cand = tuple.Tuple{Vals: make([]tuple.Value, layout.Width()), Source: spans}
	if !s.shared {
		key := -1
		if s.keyCol >= 0 {
			key = s.keyCol - s.lo
		}
		s.store = arrange.New(arrange.Options{Name: name, KeyCol: key,
			Windowed: s.windowed, TimeKind: s.timeKind})
	}
	return s
}

// SetRecycler draws the rows of matches from p (nil: allocate them). Whoever
// ends a match's routing may then hand it back to p.
func (s *SteM) SetRecycler(p *tuple.Pool) { s.pool = p }

// Name returns the SteM's name.
func (s *SteM) Name() string { return s.name }

// Spans returns the stream set of stored tuples.
func (s *SteM) Spans() tuple.SourceSet { return s.spans }

// Shared reports whether the store is a shared arrangement (WithStore).
func (s *SteM) Shared() bool { return s.shared }

// Size returns the number of stored tuples.
func (s *SteM) Size() int { return s.store.Len() }

// Accepts reports whether t is a build tuple for this SteM (spans exactly
// the stored stream set).
func (s *SteM) Accepts(t *tuple.Tuple) bool { return t.Source == s.spans }

// Build inserts a tuple. It returns an error if the tuple does not span the
// SteM's stream set — that indicates an eddy routing bug.
func (s *SteM) Build(t *tuple.Tuple) error {
	return s.BuildBatch([]*tuple.Tuple{t})
}

// BuildBatch inserts every tuple of ts under one acquisition of the store's
// lock, validating spans up front.
func (s *SteM) BuildBatch(ts []*tuple.Tuple) error {
	for _, t := range ts {
		if !s.Accepts(t) {
			return fmt.Errorf("stem %s: build tuple spans %b, want %b", s.name, t.Source, s.spans)
		}
	}
	s.builds += int64(len(ts))
	s.store.Insert(s.narrowed(ts))
	clear(s.narrow[:len(ts)]) // keep no alias of the caller's rows
	return nil
}

// narrowed returns ts as the rows the store keeps: each one's stored block,
// Seq, TS and lineage, in scratch the next call reuses.
func (s *SteM) narrowed(ts []*tuple.Tuple) []*tuple.Tuple {
	if cap(s.narrow) < len(ts) {
		s.growNarrow(len(ts))
	}
	rows := s.narrowRows[:len(ts)]
	for i, t := range ts {
		n := &s.narrow[i]
		n.Vals, n.Seq, n.TS, n.Queries = t.Vals[s.lo:s.hi], t.Seq, t.TS, t.Queries
		rows[i] = n
	}
	return rows
}

//tcq:coldpath
func (s *SteM) growNarrow(n int) {
	s.narrow = make([]tuple.Tuple, n)
	s.narrowRows = make([]*tuple.Tuple, n)
}

// ProbeBatch probes with every tuple of ps under one acquisition of the
// store's lock, appending the merged matches for all probes (in probe
// order) to out and returning it. probeKey is the wide-row slot of a probe
// holding the value hashed against the index (ignored when the SteM is
// unindexed); preds are the join predicates verified on each candidate,
// evaluated as preds[i].Eval(probe, candidate). Both are shared by the
// whole batch — the caller selects them once per batch, not once per tuple.
// The matches are the caller's: fresh rows (from the recycler, when one is
// set) that share nothing with the store but, perhaps, a lineage template.
func (s *SteM) ProbeBatch(ps []*tuple.Tuple, probeKey int, preds []expr.JoinPredicate, out []*tuple.Tuple) []*tuple.Tuple {
	s.probes += int64(len(ps))
	before := len(out)
	indexed := s.keyCol >= 0 && probeKey >= 0
	s.store.Read(func(r arrange.Rows) {
		for _, p := range ps {
			visit := func(row arrange.Row) {
				if s.joins(p, row, preds) {
					out = append(out, s.layout.MergeUsing(s.pool, p, &s.cand))
				}
			}
			if indexed {
				r.Bucket(p.Vals[probeKey].Hash(), visit)
			} else {
				r.All(visit)
			}
		}
	})
	s.cand.Queries, s.stamp.Queries = nil, nil // the arrangement's bitmaps stay in it
	s.matches += int64(len(out) - before)
	return out
}

// joins decodes a stored row into the candidate scratch's stored block and
// reports whether probe p joins it: every predicate holds.
//
//tcq:hotpath
func (s *SteM) joins(p *tuple.Tuple, row arrange.Row, preds []expr.JoinPredicate) bool {
	c := &s.cand
	row.Decode(&s.stamp, c.Vals[:s.lo])
	c.Seq, c.TS, c.Queries = s.stamp.Seq, s.stamp.TS, s.stamp.Queries
	for _, jp := range preds {
		if !jp.Eval(p, c) {
			return false
		}
	}
	return true
}

// Probe is ProbeBatch for one probe tuple: the merged wide rows {p} ⋈ SteM.
func (s *SteM) Probe(p *tuple.Tuple, probeKey int, preds []expr.JoinPredicate) []*tuple.Tuple {
	return s.ProbeBatch([]*tuple.Tuple{p}, probeKey, preds, nil)
}

// Evict removes stored tuples older than watermark (window time). The store
// rebuilds its hash index; amortize by evicting in batches.
func (s *SteM) Evict(watermark int64) int {
	n := s.store.Evict(watermark)
	s.evicted += int64(n)
	return n
}

// Stats describes SteM activity.
type Stats struct {
	Builds, Probes, Matches, Evicted int64
	Size                             int
}

// Stats returns activity counters.
func (s *SteM) Stats() Stats {
	return Stats{Builds: s.builds, Probes: s.probes, Matches: s.matches,
		Evicted: s.evicted, Size: s.Size()}
}

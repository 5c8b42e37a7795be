// Package gfilter implements grouped filters (§3.1, [MSHR02]): a shared
// index over the single-variable boolean factors of many continuous
// queries, all on the same attribute. One pass of a tuple through the
// grouped filter decides, for every registered query, whether that query's
// factors on this attribute hold — clearing the corresponding bits of the
// tuple's lineage bitmap. The per-tuple cost is O(log Q + Q/64) rather
// than O(Q), which is what makes processing thousands of standing queries
// feasible (experiment E9).
//
// Internally the filter keeps four sub-indexes, one per comparison class:
//
//   - greater-than factors, sorted by bound with suffix-union bitsets (a
//     tuple value v FAILS "col > c" iff v <= c — a suffix of the order);
//   - less-than factors, sorted by bound with prefix-union bitsets;
//   - equality factors, hashed by constant (all fail except the matching
//     bucket);
//   - inequality factors, hashed by constant (only the bucket fails).
//
// The failing sets from each sub-index are unioned and cleared from the
// tuple's lineage, which handles queries with several factors on the same
// attribute (e.g. range predicates) for free: any failing factor kills the
// query's bit.
package gfilter

import (
	"sort"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// bound is one ordered factor: a constant plus strictness. For a
// greater-than factor "col > c" strict is true; "col >= c" strict is false.
type bound struct {
	val    tuple.Value
	strict bool
	query  int
}

// GroupedFilter indexes the factors of many queries over one attribute
// (one wide-row column). It is not safe for concurrent use.
type GroupedFilter struct {
	col  int
	owns tuple.SourceSet

	gt      []bound // ascending by (val, strict): suffix fails
	lt      []bound // ascending by (val, !strict): prefix fails
	eq      map[uint64][]bound
	ne      map[uint64][]bound
	eqCount map[int]int // query -> number of equality factors

	// Suffix/prefix unions are kept only at chunk boundaries: a full
	// per-index union table costs O(factors · queries/64) memory, which at
	// 100k factors is gigabytes. With boundary unions every chunkSize
	// factors (chunk grows with the index so there are at most ~65
	// boundaries), Failing pays O(chunk) individual Set calls to cover the
	// partial chunk — O(F/64) time for O(Q) memory.
	gtChunk  int
	gtSuffix []tuple.Bitset // gtSuffix[k] = union of queries in gt[k*gtChunk:]
	ltChunk  int
	ltPrefix []tuple.Bitset // ltPrefix[k] = union of queries in lt[:k*ltChunk]
	eqAll    tuple.Bitset   // all queries with equality factors

	registered tuple.Bitset // every query with >= 1 factor here
	maxQuery   int
	dirty      bool

	// scratch bitsets reused per tuple to avoid allocation in the hot path.
	failing tuple.Bitset
	eqFail  tuple.Bitset
	// eqMatched is the multi-factor equality scratch map, lazily built on
	// the first probe that needs it and cleared per use.
	eqMatched map[int]int
}

// New creates a grouped filter over wide-row column col; owns is the
// source-set bit of the stream owning that column (for eddy routing).
func New(col int, owns tuple.SourceSet) *GroupedFilter {
	return &GroupedFilter{
		col:     col,
		owns:    owns,
		eq:      map[uint64][]bound{},
		ne:      map[uint64][]bound{},
		eqCount: map[int]int{},
	}
}

// Col returns the indexed wide-row column.
func (g *GroupedFilter) Col() int { return g.col }

// Add registers one factor of query q. The predicate's column must equal
// the filter's column.
func (g *GroupedFilter) Add(q int, p expr.Predicate) {
	if p.Col != g.col {
		panic("gfilter: predicate column mismatch")
	}
	if q > g.maxQuery {
		g.maxQuery = q
	}
	g.registered.Set(q)
	switch p.Op {
	case expr.Gt:
		g.gt = append(g.gt, bound{val: p.Val, strict: true, query: q})
	case expr.Ge:
		g.gt = append(g.gt, bound{val: p.Val, strict: false, query: q})
	case expr.Lt:
		g.lt = append(g.lt, bound{val: p.Val, strict: true, query: q})
	case expr.Le:
		g.lt = append(g.lt, bound{val: p.Val, strict: false, query: q})
	case expr.Eq:
		h := p.Val.Hash()
		g.eq[h] = append(g.eq[h], bound{val: p.Val, query: q})
		g.eqCount[q]++
	case expr.Ne:
		h := p.Val.Hash()
		g.ne[h] = append(g.ne[h], bound{val: p.Val, query: q})
	}
	g.dirty = true
}

// Remove unregisters every factor of query q (used as queries leave the
// system; §1.1 requires shared processing robust to query removal).
func (g *GroupedFilter) Remove(q int) {
	g.registered.Clear(q)
	g.gt = removeQuery(g.gt, q)
	g.lt = removeQuery(g.lt, q)
	for h, bs := range g.eq {
		if nb := removeQuery(bs, q); len(nb) == 0 {
			delete(g.eq, h)
		} else {
			g.eq[h] = nb
		}
	}
	delete(g.eqCount, q)
	for h, bs := range g.ne {
		if nb := removeQuery(bs, q); len(nb) == 0 {
			delete(g.ne, h)
		} else {
			g.ne[h] = nb
		}
	}
	g.dirty = true
}

func removeQuery(bs []bound, q int) []bound {
	out := bs[:0]
	for _, b := range bs {
		if b.query != q {
			out = append(out, b)
		}
	}
	return out
}

// chunkSize picks the union-boundary spacing for an ordered sub-index of n
// factors: at least 64, growing with n so the boundary count stays ~64 and
// union memory stays O(queries) rather than O(factors · queries).
func chunkSize(n int) int {
	c := (n + 63) / 64
	if c < 64 {
		c = 64
	}
	return c
}

// rebuild sorts the ordered sub-indexes and recomputes the boundary-union
// bitsets. Amortized over many tuples per registration change: it runs
// once per Add/Remove, never per probe, so its allocations are off the
// per-tuple budget.
//
//tcq:coldpath
func (g *GroupedFilter) rebuild() {
	words := g.maxQuery/64 + 1

	// gt: ascending by value; at equal values, non-strict (>=) first so
	// that the fail boundary "v < c || (v == c && strict)" is a clean
	// suffix: at v == c, ">= c" holds (early) while "> c" fails (late).
	sort.SliceStable(g.gt, func(i, j int) bool {
		c := tuple.Compare(g.gt[i].val, g.gt[j].val)
		if c != 0 {
			return c < 0
		}
		return !g.gt[i].strict && g.gt[j].strict
	})
	g.gtChunk = chunkSize(len(g.gt))
	nk := (len(g.gt) + g.gtChunk - 1) / g.gtChunk
	g.gtSuffix = make([]tuple.Bitset, nk+1)
	g.gtSuffix[nk] = make(tuple.Bitset, words)
	for k := nk - 1; k >= 0; k-- {
		bs := g.gtSuffix[k+1].Clone()
		hi := (k + 1) * g.gtChunk
		if hi > len(g.gt) {
			hi = len(g.gt)
		}
		for i := k * g.gtChunk; i < hi; i++ {
			bs.Set(g.gt[i].query)
		}
		g.gtSuffix[k] = bs
	}

	// lt: ascending by value; at equal values, strict (<) first so the
	// fail condition "v > c || (v == c && strict)" is a clean prefix.
	sort.SliceStable(g.lt, func(i, j int) bool {
		c := tuple.Compare(g.lt[i].val, g.lt[j].val)
		if c != 0 {
			return c < 0
		}
		return g.lt[i].strict && !g.lt[j].strict
	})
	g.ltChunk = chunkSize(len(g.lt))
	nk = (len(g.lt) + g.ltChunk - 1) / g.ltChunk
	g.ltPrefix = make([]tuple.Bitset, nk+1)
	g.ltPrefix[0] = make(tuple.Bitset, words)
	for k := 1; k <= nk; k++ {
		bs := g.ltPrefix[k-1].Clone()
		hi := k * g.ltChunk
		if hi > len(g.lt) {
			hi = len(g.lt)
		}
		for i := (k - 1) * g.ltChunk; i < hi; i++ {
			bs.Set(g.lt[i].query)
		}
		g.ltPrefix[k] = bs
	}

	g.eqAll = make(tuple.Bitset, words)
	for _, bs := range g.eq {
		for _, b := range bs {
			g.eqAll.Set(b.query)
		}
	}
	g.dirty = false
}

// Failing computes the set of registered queries whose factors on this
// attribute FAIL for value v. The returned bitset is reused across calls.
func (g *GroupedFilter) Failing(v tuple.Value) tuple.Bitset {
	if g.dirty {
		g.rebuild()
	}
	words := g.maxQuery/64 + 1
	if len(g.failing) < words {
		//lint:ignore alloccheck result-bitset grow: once per registered-query high-water mark, not per probe
		g.failing = make(tuple.Bitset, words)
	}
	f := g.failing[:words]
	for i := range f {
		f[i] = 0
	}

	// Greater-than: fails iff v < c || (v == c && strict). First index
	// where that holds begins the failing suffix: union from the next
	// chunk boundary, then the stragglers up to it individually.
	i := sort.Search(len(g.gt), func(i int) bool {
		c := tuple.Compare(v, g.gt[i].val)
		return c < 0 || (c == 0 && g.gt[i].strict)
	})
	k := (i + g.gtChunk - 1) / g.gtChunk
	f.Or(g.gtSuffix[k])
	hi := k * g.gtChunk
	if hi > len(g.gt) {
		hi = len(g.gt)
	}
	for idx := i; idx < hi; idx++ {
		f.Set(g.gt[idx].query)
	}

	// Less-than: fails iff v > c || (v == c && strict). The failing
	// prefix ends at the first index where the factor HOLDS: union up to
	// the last chunk boundary before it, stragglers individually.
	j := sort.Search(len(g.lt), func(i int) bool {
		c := tuple.Compare(v, g.lt[i].val)
		return !(c > 0 || (c == 0 && g.lt[i].strict))
	})
	k = j / g.ltChunk
	f.Or(g.ltPrefix[k])
	for idx := k * g.ltChunk; idx < j; idx++ {
		f.Set(g.lt[idx].query)
	}

	// Equality: every eq query fails except those whose constant is v.
	// Failures are computed in a separate scratch set so that clearing a
	// matching equality factor cannot erase a failure recorded by another
	// sub-index for the same query (e.g. "x = 1 AND x > 1" at v = 1).
	if g.eqAll.Any() {
		if len(g.eqFail) < words {
			//lint:ignore alloccheck equality-scratch grow: once per registered-query high-water mark, not per probe
			g.eqFail = make(tuple.Bitset, words)
		}
		ef := g.eqFail[:words]
		copy(ef, g.eqAll[:words])
		// A query's equality factors are all satisfied only when every
		// one of them matched v (a query with "x = 4 AND x = 10" never
		// passes). The common single-factor case avoids the map; the
		// multi-factor case reuses one scratch map across probes.
		matched := g.eqMatched
		clear(matched)
		bucket := g.eq[v.Hash()]
		for _, b := range bucket {
			if !tuple.Equal(b.val, v) {
				continue
			}
			if g.eqCount[b.query] == 1 {
				ef.Clear(b.query)
				continue
			}
			if matched == nil {
				//lint:ignore alloccheck lazy multi-factor scratch map: first multi-factor probe only, reused for the filter's lifetime
				matched = make(map[int]int, len(bucket))
				g.eqMatched = matched
			}
			//lint:ignore alloccheck scratch-map insert: bucket growth bounded by the multi-factor query high-water mark
			matched[b.query]++
		}
		for q, n := range matched {
			if n == g.eqCount[q] {
				ef.Clear(q)
			}
		}
		f.Or(ef)
	}

	// Inequality: only the matching bucket fails.
	for _, b := range g.ne[v.Hash()] {
		if tuple.Equal(b.val, v) {
			f.Set(b.query)
		}
	}
	return f
}

// Apply evaluates the filter on tuple t, clearing the lineage bits of every
// query whose factors fail. It returns whether any query remains live.
func (g *GroupedFilter) Apply(t *tuple.Tuple) bool {
	failing := g.Failing(t.Vals[g.col])
	for i := range failing {
		if i < len(t.Queries) {
			t.Queries[i] &^= failing[i]
		}
	}
	return t.Queries.Any()
}

// Empty reports whether no query has a factor here: the filter then applies
// to no tuple and writes no lineage.
func (g *GroupedFilter) Empty() bool { return !g.registered.Any() }

// Registered returns a copy of the set of queries with factors here.
func (g *GroupedFilter) Registered() tuple.Bitset { return g.registered.Clone() }

// Len returns the total number of registered factors.
func (g *GroupedFilter) Len() int {
	n := len(g.gt) + len(g.lt)
	for _, bs := range g.eq {
		n += len(bs)
	}
	for _, bs := range g.ne {
		n += len(bs)
	}
	return n
}

// Module adapts a GroupedFilter to the eddy.Module interface for shared
// (CACQ-mode) execution.
type Module struct {
	*GroupedFilter
	name string

	// mask is the reused selection bitmap for the batch partition.
	mask tuple.Mask

	// Sampled probe timing (SetProbeTimer): every probeEvery-th batch or
	// tuple pass through the shared index is clocked into an EWMA, so
	// introspection sees grouped-filter probe latency without per-tuple
	// clock reads.
	probeClk   chaos.Clock
	probeEvery int64
	probeCalls int64
	probeNanos int64
}

// NewModule wraps g as an eddy module.
func NewModule(name string, g *GroupedFilter) *Module { return &Module{GroupedFilter: g, name: name} }

// Name implements eddy.Module.
func (m *Module) Name() string { return m.name }

// SetProbeTimer enables sampled filter-pass latency measurement on clk
// (nil disables); every < 1 defaults to 64 calls between samples.
func (m *Module) SetProbeTimer(clk chaos.Clock, every int) {
	if every < 1 {
		every = 64
	}
	m.probeClk = clk
	m.probeEvery = int64(every)
}

// ProbeNanos returns the sampled filter-pass latency EWMA per tuple (0
// until a sample lands).
func (m *Module) ProbeNanos() int64 { return m.probeNanos }

// probeStart reports whether this pass — covering n tuples — is sampled.
// The counter advances by tuple count so batched passes sample at the
// same rate as single ones.
func (m *Module) probeStart(n int) (time.Time, bool) {
	if m.probeClk == nil || n < 1 {
		return time.Time{}, false
	}
	before := m.probeCalls
	m.probeCalls += int64(n)
	if before/m.probeEvery == m.probeCalls/m.probeEvery {
		return time.Time{}, false
	}
	return m.probeClk.Now(), true
}

func (m *Module) probeEnd(start time.Time, tuples int) {
	if tuples < 1 {
		tuples = 1
	}
	lat := m.probeClk.Since(start).Nanoseconds() / int64(tuples)
	if m.probeNanos == 0 {
		m.probeNanos = lat
	} else {
		m.probeNanos = (7*m.probeNanos + lat) / 8
	}
}

// AppliesTo implements eddy.Module: an empty filter (no registered
// factors) applies to nothing, so idle columns cost no routing visits.
func (m *Module) AppliesTo(src tuple.SourceSet) bool {
	return !m.Empty() && src.Contains(m.owns)
}

// Process implements eddy.Module: lineage bits of failing queries are
// cleared; the tuple dies once no query wants it.
func (m *Module) Process(t *tuple.Tuple) ([]*tuple.Tuple, bool) {
	if start, sampled := m.probeStart(1); sampled {
		defer m.probeEnd(start, 1)
	}
	return nil, m.Apply(t)
}

// ProcessBatch implements eddy.BatchModule: the whole batch runs against
// the shared sub-indexes in one pass (any pending rebuild is paid once),
// survivors stably partitioned to the front.
//
//tcq:hotpath
func (m *Module) ProcessBatch(b *tuple.Batch) ([]*tuple.Tuple, int) {
	if m.dirty {
		m.rebuild()
	}
	ts := b.Tuples
	if start, sampled := m.probeStart(len(ts)); sampled {
		defer m.probeEnd(start, len(ts))
	}
	m.mask.Reset(len(ts))
	for i, t := range ts {
		if m.Apply(t) {
			m.mask.Set(i)
		}
	}
	return nil, b.PartitionByMask(&m.mask)
}

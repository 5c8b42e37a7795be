// Package gfilter implements grouped filters (§3.1, [MSHR02]): a shared
// index over the single-variable boolean factors of many continuous
// queries, all on the same attribute. One pass of a tuple through the
// grouped filter decides, for every registered query, whether that query's
// factors on this attribute hold — clearing the corresponding bits of the
// tuple's lineage bitmap. That one pass in place of one test per query is
// what makes processing thousands of standing queries feasible (experiment
// E9).
//
// Internally the filter keeps four sub-indexes, one per comparison class:
//
//   - greater-than factors, sorted by bound (a tuple value v FAILS
//     "col > c" iff v <= c — a suffix of the order);
//   - less-than factors, sorted by bound (the failing ones are a prefix);
//   - equality factors, hashed by constant (all fail except the matching
//     bucket);
//   - inequality factors, hashed by constant (only the bucket fails).
//
// Each ordered sub-index is packed, once per Add/Remove, into parallel
// arrays — a compare key that orders as tuple.Compare does, a tie flag and
// an int32 query id — and into union tables: at every chunk-th position,
// the union of the queries on the failing side of it, all carved out of one
// backing array. A probe bisects the keys inline, clears one union from the
// lineage, then clears one by one the fewer than chunk "straggler" queries
// between the cut and that position. With F factors on a side over Q
// queries, a probe costs per side O(log F) key compares, ⌈Q/64⌉ word
// operations and fewer than chunk single-bit clears.
//
// The chunk is the finest spacing whose union tables fit unionBudget (2^16
// words, 512 KiB) per side, but never coarser than ~64 boundaries (chunk
// max(64, ⌈F/64⌉)). So there is one union per factor and no straggler
// while (F+1)·⌈Q/64⌉ ≤ 2^16 — 1,000 ranges over 1,000 queries, say — and a
// side's unions never take more than max(2^16, 65·⌈Q/64⌉) words.
//
// The failing sets of the sub-indexes are cleared from the lineage one
// after another, which handles queries with several factors on the same
// attribute (e.g. range predicates) for free: any failing factor kills the
// query's bit.
package gfilter

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// key is a value reduced to what tuple.Compare orders it by, so that one
// unsigned compare orders almost every pair: u is 0 for NULL, the
// order-preserving bits of a number's float64, and strKey for a string,
// whose bytes are in s. An integer its float64 rounds (past ±2^53) keeps
// its own bits in s, so keys of equal u go to the exact compare. Keys order
// as the values they were made from (cmpKey).
type key struct {
	u uint64
	s string
}

const (
	nanKey = 0xFFF0000000000001 // every NaN: above +Inf's key (0xFFF0...0)
	strKey = ^uint64(0)         // every string, above every number
)

// keyOf returns v's compare key. The bits of an integer its float64 rounds
// are written to buf, big-endian, and the key's s reads them there.
func keyOf(v tuple.Value, buf *[8]byte) key {
	switch {
	case v.K == tuple.KindNull:
		return key{}
	case v.K == tuple.KindFloat:
		return key{u: floatKey(v.F)}
	case v.Numeric():
		f, exact := tuple.IntAsFloat(v.I)
		if exact {
			return key{u: floatKey(f)}
		}
		for j := range buf {
			buf[j] = byte(uint64(v.I) >> (56 - 8*j))
		}
		return key{u: floatKey(f), s: unsafe.String(&buf[0], len(buf))}
	default:
		return key{u: strKey, s: v.S}
	}
}

// floatKey maps f to a uint64 whose unsigned order is the order Compare
// puts numbers in: both zeros share a key, every NaN has nanKey, and no
// number maps to 0 or to strKey.
func floatKey(f float64) uint64 {
	switch {
	case f == 0:
		return 1 << 63
	case f != f:
		return nanKey
	case f < 0:
		return ^math.Float64bits(f)
	}
	return math.Float64bits(f) | 1<<63
}

// cmpKey orders keys exactly as tuple.Compare orders the values they were
// made from: by u, two strings by their bytes, and two numbers of one u
// that are not both its float exactly by the numbers themselves.
func cmpKey(a, b key) int {
	switch {
	case a.u < b.u:
		return -1
	case a.u > b.u:
		return 1
	case a.s == b.s:
		return 0
	case a.u != strKey:
		return tuple.Compare(a.number(), b.number())
	case a.s < b.s:
		return -1
	}
	return 1
}

// number is the number a numeric key was made from.
func (k key) number() tuple.Value {
	if k.s != "" {
		var i uint64
		for j := 0; j < len(k.s); j++ {
			i = i<<8 | uint64(k.s[j])
		}
		return tuple.Int(int64(i))
	}
	if k.u >= 1<<63 {
		return tuple.Float(math.Float64frombits(k.u &^ (1 << 63)))
	}
	return tuple.Float(math.Float64frombits(^k.u))
}

// bound is one factor: its constant's key, its query, and for an ordered
// factor its tie flag — whether, against a probe value equal to its
// constant, it sits above the cut (see ordered).
type bound struct {
	k     key
	tie   bool
	query int
}

// ordered is one ordered sub-index packed for the probe: its factors
// sorted by (key, tie) into parallel arrays. A probe key k cuts it at the
// first i with k < keys[i], or k == keys[i] and tie[i]. For greater-than
// factors the suffix from the cut fails ("col > c" fails at v == c, so its
// tie is true; "col >= c" holds there, tie false); for less-than factors
// the prefix before the cut fails ("col <= c" holds at v == c, tie true;
// "col < c" fails there, tie false).
type ordered struct {
	keys []uint64 // each factor's key.u, ascending
	strs []string // each factor's key.s
	tie  []bool
	ids  []int32

	// unions holds one union of words lineage words per boundary b*chunk,
	// b = 0..⌈len/chunk⌉, at unions[b*words:]: of ids[b*chunk:] for a
	// suffix-failing side, of ids[:b*chunk] for a prefix-failing one.
	chunk  int
	unions []uint64
}

// unionBudget is the words one ordered sub-index's union tables may take
// before the boundaries are spaced out (see chunkFor).
const unionBudget = 1 << 16

// coarseChunk is the boundary spacing that keeps ~64 boundaries: at least
// 64 factors apart, growing with n. No chunk is coarser, so a probe never
// clears more than that many stragglers.
func coarseChunk(n int) int { return max(64, (n+63)/64) }

// chunkFor spaces the union boundaries of n ordered factors over words
// lineage words: as finely as unionBudget allows — one boundary per
// factor when n+1 unions fit — but never more coarsely than coarseChunk.
// So the unions take at most max(unionBudget, (⌈n/coarseChunk⌉+1)·words)
// words.
func chunkFor(n, words int) int {
	fit := unionBudget/words - 1 // boundaries past the first that fit
	if fit < 1 {
		return coarseChunk(n)
	}
	return min(coarseChunk(n), max(1, (n+fit-1)/fit))
}

// pack sorts bs by (key, tie) and lays it out for the probe, with the
// union tables of a suffix-failing side (suffix) or a prefix-failing one,
// carved out of one new backing array.
func (o *ordered) pack(bs []bound, suffix bool, words int) {
	slices.SortFunc(bs, func(a, b bound) int {
		if c := cmpKey(a.k, b.k); c != 0 || a.tie == b.tie {
			return c
		}
		if a.tie {
			return 1
		}
		return -1
	})
	n := len(bs)
	o.keys, o.strs, o.tie, o.ids = o.keys[:0], o.strs[:0], o.tie[:0], o.ids[:0]
	for _, b := range bs {
		o.keys = append(o.keys, b.k.u)
		o.strs = append(o.strs, b.k.s)
		o.tie = append(o.tie, b.tie)
		o.ids = append(o.ids, int32(b.query))
	}
	o.chunk = chunkFor(n, words)
	nb := (n+o.chunk-1)/o.chunk + 1
	o.unions = make([]uint64, nb*words)
	// Each union is its neighbour toward the empty end plus one chunk.
	for b := 1; b < nb; b++ {
		dst, src := b, b-1
		lo, hi := (b-1)*o.chunk, min(b*o.chunk, n)
		if suffix {
			dst, src = nb-1-b, nb-b
			lo, hi = dst*o.chunk, min((dst+1)*o.chunk, n)
		}
		u := o.unions[dst*words : (dst+1)*words]
		copy(u, o.unions[src*words:(src+1)*words])
		for _, q := range o.ids[lo:hi] {
			u[q>>6] |= 1 << (q & 63)
		}
	}
}

// cut returns the first index whose factor sits above probe key k. The
// bisection keeps the answer in [base, base+n] and compares only u: a
// step adds half to base when the middle key is below k, by the borrow of
// their difference as a mask, so no step is a branch to mispredict.
// Factors whose u equals k's (an equal number, or any string) are left to
// cutTie.
func (o *ordered) cut(k key) int {
	keys := o.keys
	base, n := 0, len(keys)
	for n > 1 {
		half := n >> 1
		_, below := bits.Sub64(keys[base+half], k.u, 0)
		base += half & -int(below)
		n -= half
	}
	if n == 1 && keys[base] < k.u {
		base++
	}
	if base < len(keys) && keys[base] == k.u {
		return o.cutTie(base, k)
	}
	return base
}

// cutTie finishes cut from lo, the first factor not below k by u alone,
// bisecting the rest by the full key compare and the tie flags.
func (o *ordered) cutTie(lo int, k key) int {
	hi := len(o.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := cmpKey(key{o.keys[m], o.strs[m]}, k); c < 0 || c == 0 && !o.tie[m] {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// GroupedFilter indexes the factors of many queries over one attribute
// (one wide-row column). It is not safe for concurrent use.
type GroupedFilter struct {
	col  int
	owns tuple.SourceSet

	gt      []bound // greater-than factors as added; packed into gtIdx
	lt      []bound // less-than factors as added; packed into ltIdx
	eq      map[uint64][]bound
	ne      map[uint64][]bound
	eqCount map[int]int // query -> number of equality factors

	gtIdx ordered      // fails from the cut on
	ltIdx ordered      // fails before the cut
	eqAll tuple.Bitset // all queries with equality factors

	registered tuple.Bitset // every query with >= 1 factor here
	maxQuery   int
	words      int // lineage words up to maxQuery, as of the last rebuild
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
	b := bound{k: keyOf(p.Val, new([8]byte)), query: q}
	switch p.Op {
	case expr.Gt, expr.Ge:
		b.tie = p.Op == expr.Gt
		g.gt = append(g.gt, b)
	case expr.Lt, expr.Le:
		b.tie = p.Op == expr.Le
		g.lt = append(g.lt, b)
	case expr.Eq:
		h := p.Val.Hash()
		g.eq[h] = append(g.eq[h], b)
		g.eqCount[q]++
	case expr.Ne:
		h := p.Val.Hash()
		g.ne[h] = append(g.ne[h], b)
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

// rebuild packs the ordered sub-indexes and recomputes the equality
// union. Amortized over many tuples per registration change: it runs once
// per Add/Remove, never per probe, so its allocations are off the
// per-tuple budget.
//
//tcq:coldpath
func (g *GroupedFilter) rebuild() {
	g.words = g.maxQuery/64 + 1
	g.gtIdx.pack(g.gt, true, g.words)
	g.ltIdx.pack(g.lt, false, g.words)
	g.eqAll = make(tuple.Bitset, g.words)
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
	if len(g.failing) < g.words {
		g.failing = make(tuple.Bitset, g.words)
	}
	f := g.failing[:g.words]
	for i := range f {
		f[i] = ^uint64(0)
	}
	g.clearFailing(v, f)
	for i := range f {
		f[i] = ^f[i]
	}
	return f
}

// Apply evaluates the filter on tuple t, clearing the lineage bits of every
// query whose factors fail. It returns whether any query remains live.
func (g *GroupedFilter) Apply(t *tuple.Tuple) bool {
	if g.dirty {
		g.rebuild()
	}
	g.clearFailing(t.Vals[g.col], t.Queries)
	return t.Queries.Any()
}

// clearFailing clears in lineage the bit of every query whose factors on
// this attribute fail for v; bits past lineage's length are left alone.
// The filter must be rebuilt.
func (g *GroupedFilter) clearFailing(v tuple.Value, lineage tuple.Bitset) {
	lin := lineage[:min(len(lineage), g.words)]
	var buf [8]byte
	k := keyOf(v, &buf)

	// Greater-than: the suffix from the cut fails. Clear the union at the
	// first boundary at or after the cut, then the stragglers before it.
	if o := &g.gtIdx; len(o.keys) > 0 {
		i := o.cut(k)
		b := (i + o.chunk - 1) / o.chunk
		andNot(lin, o.unions[b*g.words:])
		for _, q := range o.ids[i:min(b*o.chunk, len(o.ids))] {
			lin.Clear(int(q))
		}
	}

	// Less-than: the prefix before the cut fails. Clear the union at the
	// last boundary at or before the cut, then the stragglers after it.
	if o := &g.ltIdx; len(o.keys) > 0 {
		j := o.cut(k)
		b := j / o.chunk
		andNot(lin, o.unions[b*g.words:])
		for _, q := range o.ids[b*o.chunk : j] {
			lin.Clear(int(q))
		}
	}

	if len(g.eq) == 0 && len(g.ne) == 0 {
		return
	}
	h := v.Hash()

	// Equality: every eq query fails except those whose constant is v.
	// Failures are computed in a separate scratch set so that a matching
	// equality factor cannot restore a bit another sub-index cleared (e.g.
	// "x = 1 AND x > 1" at v = 1).
	if len(g.eq) > 0 {
		if len(g.eqFail) < g.words {
			//lint:ignore alloccheck equality-scratch grow: once per registered-query high-water mark, not per probe
			g.eqFail = make(tuple.Bitset, g.words)
		}
		ef := g.eqFail[:g.words]
		copy(ef, g.eqAll)
		// A query's equality factors are all satisfied only when every
		// one of them matched v (a query with "x = 4 AND x = 10" never
		// passes). The common single-factor case avoids the map; the
		// multi-factor case reuses one scratch map across probes.
		matched := g.eqMatched
		clear(matched)
		bucket := g.eq[h]
		for _, b := range bucket {
			if cmpKey(b.k, k) != 0 {
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
		andNot(lin, ef)
	}

	// Inequality: only the matching bucket fails.
	for _, b := range g.ne[h] {
		if cmpKey(b.k, k) == 0 {
			lin.Clear(b.query)
		}
	}
}

// andNot clears from lin every bit set in the first len(lin) words of u.
func andNot(lin, u []uint64) {
	u = u[:len(lin)]
	for i := range lin {
		lin[i] &^= u[i]
	}
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
}

// NewModule wraps g as an eddy module.
func NewModule(name string, g *GroupedFilter) *Module { return &Module{GroupedFilter: g, name: name} }

// Name implements eddy.Module.
func (m *Module) Name() string { return m.name }

// AppliesTo implements eddy.Module: an empty filter (no registered
// factors) applies to nothing, so idle columns cost no routing visits.
func (m *Module) AppliesTo(src tuple.SourceSet) bool {
	return !m.Empty() && src.Contains(m.owns)
}

// ProcessBatch implements eddy.Module: the whole batch runs against the
// shared sub-indexes in one pass (any pending rebuild is paid once),
// survivors stably partitioned to the front; lineage bits of failing
// queries are cleared, and a tuple dies once no query wants it.
//
//tcq:hotpath
func (m *Module) ProcessBatch(b *tuple.Batch) ([]*tuple.Tuple, int) {
	if m.dirty {
		m.rebuild()
	}
	ts := b.Tuples
	m.mask.Reset(len(ts))
	for i, t := range ts {
		if m.Apply(t) {
			m.mask.Set(i)
		}
	}
	return nil, b.PartitionByMask(&m.mask)
}

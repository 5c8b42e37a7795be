// Package cacq implements Continuously Adaptive Continuous Queries
// ([MSHR02], §3.1): a single eddy executing the disjunctive "super-query"
// of many standing queries at once. Each tuple carries a lineage bitmap
// (one bit per query); grouped filters clear the bits of queries whose
// selection factors fail, shared SteMs compute joins once for every query
// that needs them, and results are delivered per query when a tuple
// completes with that query's bit still alive and the query's footprint
// matched.
//
// Scope: all join queries sharing one engine use the shared JoinSpec set
// (one SteM per joined stream, with every predicate it stores the side of);
// queries differ in their selections, projections, and footprints, and may
// be added and removed while the engine runs.
package cacq

import (
	"fmt"
	"slices"
	"sync/atomic"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/gfilter"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// JoinSpec declares one shared join edge between two base streams: ColA Op
// ColB (the zero Op is equality).
type JoinSpec struct {
	StreamA, StreamB int
	ColA, ColB       int // wide-row join columns
	Op               expr.Op
	TimeKind         window.TimeKind
}

// Query is one standing continuous query.
type Query struct {
	ID         int
	Footprint  tuple.SourceSet // streams whose join the query wants
	Selections []expr.Predicate
	Project    []int // wide-row columns to deliver (nil = all)
	// Emit hands a result on and reports whether its consumer kept the row
	// past the call (nil: the query delivers nowhere).
	Emit      func(*tuple.Tuple) (kept bool)
	delivered int64
	// proj is the prebuilt projection operator for Project, constructed
	// once at registration so delivery — which runs once per matching
	// completion per query — never allocates an operator on the hot path.
	proj *ops.Project
	// spare is the query's last projected row when Emit did not keep it:
	// the next projection writes into it instead of allocating. Delivery
	// runs on one goroutine per engine, so it needs no lock.
	spare *tuple.Tuple
}

// Delivered returns the number of results delivered to the query.
func (q *Query) Delivered() int64 { return q.delivered }

// Engine is the shared CQ processor.
type Engine struct {
	layout  *tuple.Layout
	ed      *eddy.Eddy
	filters []*gfilter.GroupedFilter // per wide column; nil until a query selects on it
	stems   []*ops.SteMModule
	queries map[int]*Query
	// byFootprint lists live queries per exact footprint for delivery.
	byFootprint map[tuple.SourceSet][]*Query
	// interested[s] caches the lineage template for tuples of stream s, and
	// borrow[s] says whether those tuples carry the template itself.
	interested []tuple.Bitset
	borrow     []bool
	maxID      int
	// wide is the reusable ingest batch (single ingest goroutine).
	wide tuple.Batch
	// pool, when set (SetRecycler), is where the engine draws the wide rows
	// it routes and returns the ones nobody kept; spare holds the lineage
	// bitmaps of finished tuples for the next ingest to copy its template
	// into. Both are the ingest goroutine's alone.
	pool  *tuple.Pool
	spare []tuple.Bitset

	// arrs are the arrangements the join SteMs store into, one per SteM, all
	// the engine's own. slots hands out lineage-slot IDs, those of removed
	// queries again once scrubbed from arrs.
	arrs  []*arrange.Arrangement
	slots arrange.Slots

	// shard marks a Parallel's shard (forward), whose out collects the
	// results of the batch in Run, each with its lineage, for the merge
	// stage to deliver.
	shard bool
	out   []eddy.Output
}

// New creates a shared engine over layout with the given shared join edges,
// its SteMs storing into arrangements the engine owns. It reuses the lineage
// slots of removed queries, scrubbed from its stored rows first, so bitmaps
// stay dense under query churn: its step is fully synchronous, so no tuple
// in flight can carry a freed slot's bit. policy nil selects a lottery
// policy.
func New(layout *tuple.Layout, joins []JoinSpec, policy eddy.Policy) (*Engine, error) {
	if policy == nil {
		policy = eddy.NewLotteryPolicy(engineSeq.Add(1))
	}
	e := &Engine{
		layout:      layout,
		queries:     make(map[int]*Query),
		byFootprint: make(map[tuple.SourceSet][]*Query),
		filters:     make([]*gfilter.GroupedFilter, layout.Width()),
		interested:  make([]tuple.Bitset, layout.Streams()),
		borrow:      make([]bool, layout.Streams()),
	}

	// One SteM per joined stream, holding every join predicate whose stored
	// side it is. Grouped filters come later, one per column the first time
	// a query selects on it (AddQuery), so the module count follows the
	// queries, not the layout's width.
	var modules []eddy.Module
	var all tuple.SourceSet
	for s := range layout.Schemas {
		all |= tuple.SingleSource(s)
		preds, keyCol, kind := storedSide(joins, s)
		if preds == nil {
			continue
		}
		sm := ops.NewSteMModule(e.newSteM(s, keyCol, kind), layout, preds)
		e.stems = append(e.stems, sm)
		modules = append(modules, sm)
	}
	if err := eddy.CheckModuleCount(len(modules)); err != nil {
		return nil, err
	}
	// Delivery happens per query in the completion hook, never through the
	// eddy's output. The full-layout span lets N-way planning (SetNWay on
	// Host) prune intermediates no full-span result needs: turn it on only
	// when every query's footprint is the whole layout.
	e.ed = eddy.New(all, policy, nil, modules...)
	e.ed.SetCompletionHook(e.deliver)
	return e, nil
}

// engineSeq numbers engine constructions so defaulted policies get distinct
// seeds: repeated trials (fresh engines) adapt independently instead of
// replaying one RNG stream.
var engineSeq atomic.Int64

// storedSide collects the join predicates whose stored side is stream s
// (LeftCol probing, RightCol stored), the first equality column to index s's
// SteM on (-1: probes scan), and the edges' notion of time. preds is nil
// when no edge touches s.
func storedSide(joins []JoinSpec, s int) (preds []expr.JoinPredicate, keyCol int, kind window.TimeKind) {
	keyCol = -1
	for _, j := range joins {
		var p expr.JoinPredicate
		switch s {
		case j.StreamA:
			p = expr.JoinPredicate{LeftCol: j.ColB, Op: j.Op.Flip(), RightCol: j.ColA}
		case j.StreamB:
			p = expr.JoinPredicate{LeftCol: j.ColA, Op: j.Op, RightCol: j.ColB}
		default:
			continue
		}
		preds = append(preds, p)
		if j.Op == expr.Eq && keyCol < 0 {
			keyCol = p.RightCol
		}
		kind = j.TimeKind
	}
	return preds, keyCol, kind
}

// newSteM builds one join SteM for stream s keyed on keyCol, storing into
// an arrangement of the engine's own. The arrangement is named after s's
// schema, its alias in a self-join; it keeps s's block of each row, keyed
// on keyCol's place in it, and holds the lineage templates themselves
// (isTemplate), copying every other bitmap.
func (e *Engine) newSteM(s, keyCol int, kind window.TimeKind) *stem.SteM {
	name := e.layout.Schemas[s].Relation
	key := -1
	if keyCol >= 0 {
		key = keyCol - e.layout.Offsets[s]
	}
	a := arrange.New(arrange.Options{Name: name, KeyCol: key, Windowed: true,
		TimeKind: kind, Borrowed: e.isTemplate})
	e.arrs = append(e.arrs, a)
	return stem.New(name, tuple.SingleSource(s), e.layout,
		stem.WithIndex(keyCol), stem.WithWindowEviction(kind), stem.WithStore(a))
}

// filtersFor creates the grouped filters selections need and no query has
// created yet, as new eddy modules. It changes nothing when they would take
// the eddy past 64 modules.
func (e *Engine) filtersFor(selections []expr.Predicate) error {
	var fresh []int
	for _, p := range selections {
		if p.Col < 0 || p.Col >= len(e.filters) {
			return fmt.Errorf("cacq: selection column %d out of range", p.Col)
		}
		if e.filters[p.Col] == nil && !slices.Contains(fresh, p.Col) {
			fresh = append(fresh, p.Col)
		}
	}
	if err := eddy.CheckModuleCount(len(e.ed.Modules()) + len(fresh)); err != nil {
		return err
	}
	for _, col := range fresh {
		g := gfilter.New(col, e.layout.OwnerSet(col))
		e.filters[col] = g
		// Cannot fail: the count was checked above.
		_ = e.ed.AddModule(gfilter.NewModule(fmt.Sprintf("GF(%s)", e.layout.Wide.Columns[col].Name), g))
	}
	return nil
}

// AddQuery registers a standing query and returns it. Footprint must be a
// non-empty subset of the layout's streams; selections are wide-row bound.
// It fails, changing nothing, when the query's selections need grouped
// filters that would take the eddy past 64 modules. out may keep every row
// it is given.
func (e *Engine) AddQuery(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, out func(*tuple.Tuple)) (*Query, error) {
	return e.AddMember(footprint, selections, project, keepsAll(out))
}

// keepsAll is out as an emit that keeps every row it is given.
func keepsAll(out func(*tuple.Tuple)) func(*tuple.Tuple) bool {
	if out == nil {
		return nil
	}
	return func(t *tuple.Tuple) bool { out(t); return true }
}

// AddMember is AddQuery for a query whose output reports whether it kept
// each row: a projected row emit did not keep is written over by the
// query's next result, so a query costs no allocation per result. A row
// without a projection is the engine's wide row, which the query never
// owns: one no member's emit kept goes back to the pool (SetRecycler).
func (e *Engine) AddMember(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, emit func(*tuple.Tuple) (kept bool)) (*Query, error) {
	if footprint == 0 {
		return nil, fmt.Errorf("cacq: empty query footprint")
	}
	if err := e.filtersFor(selections); err != nil {
		return nil, err
	}
	q := &Query{
		Footprint:  footprint,
		Selections: selections,
		Project:    project,
		Emit:       emit,
	}
	q.ID = e.allocSlot()
	if q.ID > e.maxID {
		e.maxID = q.ID
	}
	for _, p := range selections {
		e.filters[p.Col].Add(q.ID, p)
	}
	if q.Project != nil {
		q.proj = ops.NewProject(q.Project...)
	}
	e.queries[q.ID] = q
	e.byFootprint[footprint] = append(e.byFootprint[footprint], q)
	e.invalidate()
	return q, nil
}

// RemoveQuery unregisters a standing query.
func (e *Engine) RemoveQuery(id int) error {
	q, ok := e.queries[id]
	if !ok {
		return fmt.Errorf("cacq: query %d not found", id)
	}
	for _, p := range q.Selections {
		e.filters[p.Col].Remove(id)
	}
	delete(e.queries, id)
	fps := e.byFootprint[q.Footprint]
	for i, qq := range fps {
		if qq.ID == id {
			e.byFootprint[q.Footprint] = append(fps[:i], fps[i+1:]...)
			break
		}
	}
	e.slots.Free(id)
	e.invalidate()
	return nil
}

// allocSlot hands out a lineage-slot ID: a scrubbed free slot when one
// exists; else, if removed queries are cooling, scrub their bits from every
// arrangement in one batched pass, promote, and retry; else a fresh ID.
// Purely driven by allocator state, so the same mutation sequence yields the
// same IDs regardless of timing.
func (e *Engine) allocSlot() int {
	if id, ok := e.slots.Alloc(); ok {
		return id
	}
	if e.slots.Cooling() > 0 {
		mask := e.slots.CoolingMask()
		for _, a := range e.arrs {
			a.ScrubLineage(mask)
		}
		e.slots.Promote()
		if id, ok := e.slots.Alloc(); ok {
			return id
		}
	}
	return e.slots.Fresh()
}

// SlotHighWater returns the number of lineage-slot IDs ever minted: it
// stays near the live query count under churn instead of growing
// monotonically.
func (e *Engine) SlotHighWater() int { return e.slots.High() }

func (e *Engine) invalidate() {
	e.ed.InvalidateMasks()
	for s := range e.interested {
		e.interested[s] = nil
	}
}

// interestedFor returns the lineage template for stream s: the bits of every
// query whose footprint includes s. A template equal to another stream's is
// that stream's, so in a class whose members share one footprint the rows
// of every stream can hold one bitmap, which Layout.Merge then passes on
// instead of intersecting. When no grouped filter holds a factor on s's
// columns, no module writes the lineage of s's tuples, and they borrow the
// template itself; an arrangement storing such a row keeps the template
// too, not a copy, so a probe carrying it still merges without one. The one
// write a borrowed template can see is arrange.ScrubLineage clearing freed
// slots: a current template has none of their bits (it was minted after the
// removal), and every holder of a stale one wants them gone.
func (e *Engine) interestedFor(s int) tuple.Bitset {
	if e.interested[s] != nil {
		return e.interested[s]
	}
	bs := tuple.NewBitset(e.maxID + 1)
	src := tuple.SingleSource(s)
	for _, q := range e.queries {
		if q.Footprint.Contains(src) {
			bs.Set(q.ID)
		}
	}
	for _, other := range e.interested {
		if slices.Equal(other, bs) {
			bs = other
			break
		}
	}
	borrow := true
	off := e.layout.Offsets[s]
	for _, g := range e.filters[off : off+e.layout.Schemas[s].Arity()] {
		borrow = borrow && (g == nil || g.Empty())
	}
	e.interested[s], e.borrow[s] = bs, borrow
	return bs
}

// isTemplate reports whether bs is one of the current lineage templates.
// Tuples carrying a borrowed template finish inside the ingest that stamped
// them, before a query change can replace it, so the current templates are
// the only borrowed bitmaps a finished tuple can hold. It is also what the
// engine's arrangements keep without copying (Options.Borrowed): every
// bitmap they hold is a template or their own copy, never one that reaches
// the spare list.
func (e *Engine) isTemplate(bs tuple.Bitset) bool {
	for _, tmpl := range e.interested {
		if tmpl.Same(bs) {
			return true
		}
	}
	return false
}

// lineage returns the lineage one tuple of stream s carries: the template
// itself when s borrows it, else a private copy written into a spare bitmap
// when one is large enough. A spare too small for the template (the query
// population grew since it was minted) is dropped.
func (e *Engine) lineage(s int, tmpl tuple.Bitset) tuple.Bitset {
	if e.borrow[s] {
		return tmpl
	}
	if n := len(e.spare); n > 0 {
		bs := e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
		if cap(bs) >= len(tmpl) {
			bs = bs[:len(tmpl)]
			copy(bs, tmpl)
			return bs
		}
	}
	return tmpl.Clone()
}

// maxSpare bounds the spare-bitmap list. An ingest batch and the join
// matches it spawns are what is in flight at once, well under this, and a
// full list for a class of 10,000 members is about a megabyte.
const maxSpare = 1024

// release is the eddy's release func (SetRecycler): it keeps a finished
// tuple's lineage bitmap for the next ingest and, when the row is dead too,
// returns the row to the pool. A row that lives on is not touched: the eddy
// took its lineage off before delivery. A built row comes here like any
// other: its SteM kept its values, and its lineage as a copy unless it was a
// template. On a shard a live row is a forwarded result, whose lineage goes
// with it to the merge stage and comes back through Reclaim.
func (e *Engine) release(t *tuple.Tuple, lineage tuple.Bitset, rowDead bool) {
	switch {
	case rowDead:
		e.recycle(t, lineage)
	case !e.shard:
		e.recycle(nil, lineage)
	}
}

// recycle keeps lineage for the next ingest, unless it is a borrowed
// template that the next copy would overwrite under every holder, and
// returns t, when non-nil, to the pool.
func (e *Engine) recycle(t *tuple.Tuple, lineage tuple.Bitset) {
	if lineage != nil && len(e.spare) < maxSpare && !e.isTemplate(lineage) {
		e.spare = append(e.spare, lineage)
	}
	if t != nil && e.pool != nil {
		e.pool.Put(t)
	}
}

// SetRecycler makes the engine reuse what it routes: IngestOwned draws wide
// rows from p (or adopts the base tuple as one), the join SteMs draw their
// matches from it, and once a tuple's routing is over its lineage bitmap is
// kept for the next ingest and its row, when nobody kept it, goes back to
// p. Delivered rows then carry no lineage.
func (e *Engine) SetRecycler(p *tuple.Pool) {
	e.pool = p
	for _, sm := range e.stems {
		sm.SteM().SetRecycler(p)
	}
	e.ed.SetRelease(e.release)
}

// Ingest feeds one base tuple of stream s through the shared super-query.
// The caller keeps ownership of base (Widen copies).
func (e *Engine) Ingest(s int, base *tuple.Tuple) {
	tmpl := e.interestedFor(s)
	if !tmpl.Any() {
		return // no standing query cares about this stream
	}
	t := e.layout.Widen(s, base)
	t.Queries = e.lineage(s, tmpl)
	e.ed.Ingest(t)
}

// IngestBatch widens and lineage-stamps a batch of base tuples of stream s,
// then routes them through the shared eddy in one batch — the lineage
// template is computed once for the whole batch instead of per tuple. The
// caller keeps ownership of the base tuples (Widen copies); batches of no
// interest to any standing query are skipped entirely.
func (e *Engine) IngestBatch(s int, base []*tuple.Tuple) { e.ingestBatch(s, base, false) }

// IngestOwned is IngestBatch taking ownership of the base tuples, which the
// caller must not touch again. A base tuple whose stream block is the whole
// wide row (every single-stream class) becomes the wide row itself; any
// other is widened into a row drawn from the pool and returned to it.
func (e *Engine) IngestOwned(s int, base []*tuple.Tuple) { e.ingestBatch(s, base, true) }

func (e *Engine) ingestBatch(s int, base []*tuple.Tuple, owned bool) {
	if len(base) == 0 {
		return
	}
	tmpl := e.interestedFor(s)
	if !tmpl.Any() {
		if owned && e.pool != nil {
			for _, bt := range base {
				e.pool.Put(bt)
			}
		}
		return
	}
	whole := e.layout.Offsets[s] == 0
	e.wide.Reset()
	for _, bt := range base {
		var t *tuple.Tuple
		switch {
		case !owned:
			t = e.layout.Widen(s, bt)
		case whole && len(bt.Vals) == e.layout.Width():
			t = bt
			t.Source = tuple.SingleSource(s)
			t.ClearLineage()
		default:
			t = e.layout.WidenUsing(e.pool, s, bt)
			if e.pool != nil {
				e.pool.Put(bt)
			}
		}
		t.Queries = e.lineage(s, tmpl)
		e.wide.Append(t)
	}
	e.ed.IngestBatch(&e.wide)
	e.wide.Reset()
}

// forward makes the engine a Parallel's shard: every completion whose
// lineage is still live and whose span matches a standing footprint goes,
// with its lineage, into out for the merge stage, where the front engine
// delivers it. A forwarded tuple counts as delivered.
func (e *Engine) forward() {
	e.shard = true
	e.ed.SetCompletionHook(func(t *tuple.Tuple, lineage tuple.Bitset) (kept, delivered bool) {
		if !lineage.Any() || len(e.byFootprint[t.Source]) == 0 {
			return false, false
		}
		e.out = append(e.out, eddy.Output{T: t, Lineage: lineage})
		return true, true
	})
}

// deliver routes a completed tuple to every query whose footprint exactly
// matches the tuple's span and whose lineage bit survived. It walks the
// surviving bits rather than the footprint's member list, so a completed
// tuple costs O(bitmap words + survivors), not O(registered queries) —
// with thousands of mostly-filtered overlapping CQs the member list is
// long but the survivor set is tiny. Bits whose slot was freed (query
// removed mid-flight) or whose owner has a different footprint are
// skipped, matching the old member-list semantics exactly. lineage is t's
// Queries bitmap, which the eddy may already have taken off the row. It
// reports whether some member kept t itself (a query without a projection
// whose Emit reported it kept), and whether any member was delivered it. A
// member's projected row is its own: one its Emit did not keep is the next
// projection's target (Query.spare).
func (e *Engine) deliver(t *tuple.Tuple, lineage tuple.Bitset) (kept, delivered bool) {
	src := t.Source
	lineage.ForEach(func(id int) {
		q := e.queries[id]
		if q == nil || q.Footprint != src {
			return
		}
		q.delivered++
		delivered = true
		switch {
		case q.Emit == nil:
		case q.proj == nil:
			if q.Emit(t) {
				kept = true
			}
		default:
			out := q.proj.ApplyTo(q.spare, t)
			q.spare = nil
			if !q.Emit(out) {
				q.spare = out
			}
		}
	})
	return kept, delivered
}

// EvictWindows drops SteM state older than watermark across all shared
// SteMs (the engine's window maintenance tick) and frees it at once.
func (e *Engine) EvictWindows(watermark int64) int {
	n := 0
	for _, sm := range e.stems {
		n += sm.Evict(watermark)
	}
	return n
}

// Stats exposes the underlying eddy counters.
func (e *Engine) Stats() eddy.Stats { return e.ed.Stats() }

// Host returns the engine's eddy as its control plane: stats, module names,
// sampled hop latency, policy info (eddy/host.go). Unsynchronized like every
// Engine method; callers exclude the ingest goroutine.
func (e *Engine) Host() *eddy.Eddy { return e.ed }

// SteMs returns the join SteM modules, one per joined stream in stream
// order. Unsynchronized like every Engine method.
func (e *Engine) SteMs() []*ops.SteMModule { return e.stems }

// Arrangements calls fn with each arrangement the join SteMs store into.
func (e *Engine) Arrangements(fn func(a *arrange.Arrangement)) {
	for _, a := range e.arrs {
		fn(a)
	}
}

// QueryCount returns the number of standing queries.
func (e *Engine) QueryCount() int { return len(e.queries) }

// Delivered sums results delivered to the currently standing queries.
func (e *Engine) Delivered() int64 {
	var n int64
	for _, q := range e.queries {
		n += q.delivered
	}
	return n
}

// SetTracer attaches a sampled lineage tracer to the shared eddy; tag
// identifies the class in recorded traces (e.g. "shared:quotes").
func (e *Engine) SetTracer(tr *metrics.Tracer, tag string) { e.ed.SetTracer(tr, tag) }

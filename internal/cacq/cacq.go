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
// (the common-equijoin sharing CACQ evaluates); queries differ in their
// selections, projections, and footprints, and may be added and removed
// while the engine runs.
package cacq

import (
	"fmt"
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

// JoinSpec declares one shared equijoin edge between two base streams.
type JoinSpec struct {
	StreamA, StreamB int
	ColA, ColB       int // wide-row join columns
	TimeKind         window.TimeKind
}

// Query is one standing continuous query.
type Query struct {
	ID         int
	Footprint  tuple.SourceSet // streams whose join the query wants
	Selections []expr.Predicate
	Project    []int // wide-row columns to deliver (nil = all)
	Output     func(*tuple.Tuple)
	delivered  int64
	// proj is the prebuilt projection operator for Project, constructed
	// once at registration so delivery — which runs once per matching
	// completion per query — never allocates an operator on the hot path.
	proj *ops.Project
}

// Delivered returns the number of results delivered to the query.
func (q *Query) Delivered() int64 { return q.delivered }

// Engine is the shared CQ processor.
type Engine struct {
	layout  *tuple.Layout
	ed      *eddy.Eddy
	filters []*gfilter.GroupedFilter // one per wide column, lazily populated
	stems   []*ops.SteMModule
	queries map[int]*Query
	// byFootprint lists live queries per exact footprint for delivery.
	byFootprint map[tuple.SourceSet][]*Query
	// interested[s] caches the lineage template for tuples of stream s.
	interested []tuple.Bitset
	maxID      int
	watermarks []int64
	// wide is the reusable ingest batch (single ingest goroutine).
	wide tuple.Batch
	// pool, when set (SetRecycler), is where the engine draws the wide rows
	// it routes and returns the ones nobody kept; spare holds the lineage
	// bitmaps of finished tuples for the next ingest to copy its template
	// into. Both are the ingest goroutine's alone.
	pool  *tuple.Pool
	spare []tuple.Bitset

	// cfg says where SteM rows live and whether lineage slots are reused
	// (arranged.go). arrs are the arrangements behind the SteMs, cursors the
	// engine's cursor on each, handles each query's reader handles; slots
	// hands out lineage-slot IDs.
	cfg     ArrangedConfig
	arrs    []*arrange.Arrangement
	cursors []*arrange.Cursor
	handles map[int][]*arrange.Handle
	slots   arrange.Slots
}

// ModuleCount returns how many eddy modules a shared engine over layout
// with the given join edges needs: one grouped filter per wide column plus
// two SteMs per join.
func ModuleCount(layout *tuple.Layout, joins []JoinSpec) int {
	return layout.Width() + 2*len(joins)
}

// New creates a shared engine over layout with the given shared join edges,
// its SteMs storing into arrangements only this engine reaches and its query
// IDs monotone. policy nil selects a lottery policy. It fails when the
// super-query needs more modules than one eddy's 64-bit lineage bitmaps can
// route.
func New(layout *tuple.Layout, joins []JoinSpec, policy eddy.Policy) (*Engine, error) {
	return NewArranged(layout, joins, policy, ArrangedConfig{Provider: privateArrangement})
}

// engineSeq numbers engine constructions so defaulted policies get distinct
// seeds: repeated trials (fresh engines) adapt independently instead of
// replaying one RNG stream.
var engineSeq atomic.Int64

// NewArranged is New with the caller deciding, through cfg, which
// arrangements the join SteMs store into and whether lineage slots are
// reused. The SteM fronts keep validation, predicate verification and
// counters private either way.
func NewArranged(layout *tuple.Layout, joins []JoinSpec, policy eddy.Policy, cfg ArrangedConfig) (*Engine, error) {
	if err := eddy.CheckModuleCount(ModuleCount(layout, joins)); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = eddy.NewLotteryPolicy(engineSeq.Add(1))
	}
	e := &Engine{
		layout:      layout,
		queries:     make(map[int]*Query),
		byFootprint: make(map[tuple.SourceSet][]*Query),
		interested:  make([]tuple.Bitset, layout.Streams()),
		cfg:         cfg,
		handles:     make(map[int][]*arrange.Handle),
	}

	var modules []eddy.Module
	// One grouped filter per wide column, created up front so the module
	// set is fixed; empty filters report AppliesTo = false and cost
	// nothing until a query registers a factor.
	e.filters = make([]*gfilter.GroupedFilter, layout.Width())
	for col := 0; col < layout.Width(); col++ {
		g := gfilter.New(col, layout.OwnerSet(col))
		e.filters[col] = g
		modules = append(modules, gfilter.NewModule(
			fmt.Sprintf("GF(%s)", layout.Wide.Columns[col].Name), g))
	}
	for _, js := range joins {
		stA := e.newSteM(js.StreamA, js.ColA, js.TimeKind)
		stB := e.newSteM(js.StreamB, js.ColB, js.TimeKind)
		modA := ops.NewSteMModule(stA, layout,
			[]expr.JoinPredicate{{LeftCol: js.ColB, Op: expr.Eq, RightCol: js.ColA}})
		modB := ops.NewSteMModule(stB, layout,
			[]expr.JoinPredicate{{LeftCol: js.ColA, Op: expr.Eq, RightCol: js.ColB}})
		e.stems = append(e.stems, modA, modB)
		modules = append(modules, modA, modB)
	}

	// The eddy's own all-source output path is disabled (all = 0 matches
	// no tuple); delivery happens in the completion hook per query.
	e.ed = eddy.New(0, policy, nil, modules...)
	e.ed.SetCompletionHook(e.deliver)
	return e, nil
}

// newSteM builds one join SteM for stream s keyed on keyCol, storing into
// the provider's arrangement for it.
func (e *Engine) newSteM(s, keyCol int, kind window.TimeKind) *stem.SteM {
	name := e.layout.Schemas[s].Relation
	a := e.cfg.Provider(name, keyCol, kind)
	e.trackArrangement(a)
	return stem.New(name, tuple.SingleSource(s), e.layout,
		stem.WithIndex(keyCol), stem.WithWindowEviction(kind), stem.WithStore(a))
}

// AddQuery registers a standing query and returns it. Footprint must be a
// non-empty subset of the layout's streams; selections are wide-row bound.
func (e *Engine) AddQuery(footprint tuple.SourceSet, selections []expr.Predicate,
	project []int, out func(*tuple.Tuple)) (*Query, error) {
	if footprint == 0 {
		return nil, fmt.Errorf("cacq: empty query footprint")
	}
	q := &Query{
		Footprint:  footprint,
		Selections: selections,
		Project:    project,
		Output:     out,
	}
	q.ID = e.allocSlot()
	if q.ID > e.maxID {
		e.maxID = q.ID
	}
	for _, p := range selections {
		if p.Col < 0 || p.Col >= len(e.filters) {
			return nil, fmt.Errorf("cacq: selection column %d out of range", p.Col)
		}
		e.filters[p.Col].Add(q.ID, p)
	}
	if q.Project != nil {
		q.proj = ops.NewProject(q.Project...)
	}
	e.queries[q.ID] = q
	e.byFootprint[footprint] = append(e.byFootprint[footprint], q)
	if len(e.cursors) > 0 {
		hs := make([]*arrange.Handle, len(e.cursors))
		for i, c := range e.cursors {
			hs[i] = c.Attach()
		}
		e.handles[q.ID] = hs
	}
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
	for _, h := range e.handles[id] {
		h.Close()
	}
	delete(e.handles, id)
	if e.cfg.ReuseSlots {
		e.slots.Free(id)
	}
	e.invalidate()
	return nil
}

func (e *Engine) invalidate() {
	e.ed.InvalidateMasks()
	for s := range e.interested {
		e.interested[s] = nil
	}
}

// interestedFor returns the shared (do-not-mutate) lineage template for
// stream s: the bits of every query whose footprint includes s.
func (e *Engine) interestedFor(s int) tuple.Bitset {
	if e.interested[s] == nil {
		bs := tuple.NewBitset(e.maxID + 1)
		src := tuple.SingleSource(s)
		for _, q := range e.queries {
			if q.Footprint.Contains(src) {
				bs.Set(q.ID)
			}
		}
		e.interested[s] = bs
	}
	return e.interested[s]
}

// lineage returns a private copy of tmpl for one tuple to carry, written
// into a spare bitmap when one is large enough. A spare too small for the
// template (the query population grew since it was minted) is dropped.
func (e *Engine) lineage(tmpl tuple.Bitset) tuple.Bitset {
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
// took its lineage off before delivery.
func (e *Engine) release(t *tuple.Tuple, lineage tuple.Bitset, rowDead bool) {
	if lineage != nil && len(e.spare) < maxSpare {
		e.spare = append(e.spare, lineage)
	}
	if rowDead && e.pool != nil {
		e.pool.Put(t)
	}
}

// SetRecycler makes the engine reuse what it routes: IngestOwned draws wide
// rows from p (or adopts the base tuple as one), and once a tuple's routing
// is over its lineage bitmap is kept for the next ingest and its row, when
// nobody kept it, goes back to p. Delivered rows then carry no lineage.
// Sequential engines only: a Parallel's shards forward their completions,
// lineage intact, to the merge stage.
func (e *Engine) SetRecycler(p *tuple.Pool) {
	e.pool = p
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
	t.Queries = e.lineage(tmpl)
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
		t.Queries = e.lineage(tmpl)
		e.wide.Append(t)
	}
	e.ed.IngestBatch(&e.wide)
	e.wide.Reset()
}

// IngestWide feeds a tuple already widened to the engine's layout and
// already carrying its lineage bitmap. The parallel layer widens and
// stamps lineage once on the driver, then routes the wide tuple to a
// shard engine through this entry point.
func (e *Engine) IngestWide(t *tuple.Tuple) { e.ed.Ingest(t) }

// SetDeliverySink diverts completed tuples away from this engine's
// per-query delivery: fn receives every completion whose lineage is still
// live and whose span matches at least one standing footprint. A shard
// engine inside a Parallel uses it to forward results — lineage bitmap
// intact — to the merge stage, where the front engine delivers them.
func (e *Engine) SetDeliverySink(fn func(*tuple.Tuple)) {
	e.ed.SetCompletionHook(func(t *tuple.Tuple, lineage tuple.Bitset) bool {
		if !lineage.Any() || len(e.byFootprint[t.Source]) == 0 {
			return false
		}
		fn(t)
		return true
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
// reports whether some member received t itself (a query without a
// projection).
func (e *Engine) deliver(t *tuple.Tuple, lineage tuple.Bitset) (kept bool) {
	src := t.Source
	lineage.ForEach(func(id int) {
		q := e.queries[id]
		if q == nil || q.Footprint != src {
			return
		}
		q.delivered++
		if q.Output == nil {
			return
		}
		out := t
		if q.proj != nil {
			out = q.proj.Apply(t)
		} else {
			kept = true
		}
		q.Output(out)
	})
	return kept
}

// EvictWindows drops SteM state older than watermark across all shared
// SteMs (the engine's window maintenance tick). The engine holds a cursor on
// every arrangement, so what is dropped is freed at the next AdvanceEpoch.
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
// probe timing, policy info (eddy/host.go). Unsynchronized like every
// Engine method; callers exclude the ingest goroutine.
func (e *Engine) Host() *eddy.Eddy { return e.ed }

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

// Package eddy implements the Eddy adaptive routing module ([AH00], §2.2):
// a router that continuously decides, tuple by tuple, the order in which a
// set of commutative query modules process data, re-optimizing the plan
// while it runs. Each tuple carries Ready/Done bitmaps recording the
// modules it has visited; a tuple spanning all of the query's streams whose
// Done set covers every applicable module is sent to the eddy's output.
package eddy

import (
	"fmt"
	"math/bits"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/tuple"
)

// Module is a query operator attached to an eddy. Modules are invoked
// synchronously from the routing loop (the non-preemptive Dispatch Unit
// model of §4.2.2), so implementations need no internal locking.
type Module interface {
	// Name identifies the module in stats and diagnostics.
	Name() string
	// AppliesTo reports whether tuples spanning src must visit this
	// module before they can be output.
	AppliesTo(src tuple.SourceSet) bool
	// Process handles t. outputs are new tuples the module generated
	// (e.g. join matches) to be routed onward; pass reports whether t
	// itself survived (a failed selection returns pass=false).
	Process(t *tuple.Tuple) (outputs []*tuple.Tuple, pass bool)
}

// BatchModule is implemented by modules that can evaluate a whole batch in
// one call, amortizing per-tuple dispatch, lock acquisition, and index
// lookup. The eddy routes a batch here instead of looping Process when the
// tracer is off (per-hop trace timing needs per-tuple granularity).
type BatchModule interface {
	Module
	// ProcessBatch handles every tuple of b — all sharing one routing
	// lineage — and partitions b.Tuples in place: survivors keep their
	// relative order in b.Tuples[:passed]; dropped tuples land after.
	// outputs collects the new tuples generated across the whole batch.
	ProcessBatch(b *tuple.Batch) (outputs []*tuple.Tuple, passed int)
}

// Builder is implemented by modules (SteMs) that must receive a tuple as a
// build before any other module processes it, preserving the paper's
// "first sent as a build tuple to SteM_S, then as a probe to SteM_T"
// discipline, which guarantees no match is missed.
type Builder interface {
	Module
	// BuildsFor reports whether tuples spanning src are build input.
	BuildsFor(src tuple.SourceSet) bool
}

// ModuleStats counts per-module activity observed by the eddy.
type ModuleStats struct {
	Visits   int64 // tuples routed to the module
	Passed   int64 // tuples that survived
	Produced int64 // new tuples generated (join matches)
}

// Selectivity returns the observed pass fraction (1.0 before any visit).
func (m ModuleStats) Selectivity() float64 {
	if m.Visits == 0 {
		return 1
	}
	return float64(m.Passed) / float64(m.Visits)
}

// Stats aggregates eddy activity for the experiments.
type Stats struct {
	Ingested  int64 // tuples entering from sources
	Emitted   int64 // tuples sent to output
	Dropped   int64 // tuples eliminated by selections or lineage
	Decisions int64 // routing decisions made (the adaptivity overhead)
	Visits    int64 // total module invocations (the work metric)
	// Runs counts lineage-homogeneous work batches created by enqueueRuns;
	// Splits counts the extra batches beyond one per enqueue — how often a
	// batch had to split because its tuples' routing diverged.
	Runs   int64
	Splits int64
	// Orders counts fresh ChooseOrder plans drawn on the N-way path;
	// OrderReuses counts batches that rode a cached plan instead (the §4.3
	// batching knob at probe-order granularity). NWayPruned counts module
	// visits the k-ary probe chain skipped because the intermediate they
	// would produce was provably doomed (its Done set already excluded it
	// from ever spanning the full query).
	Orders      int64
	OrderReuses int64
	NWayPruned  int64
	Modules     []ModuleStats
	// Tickets is the routing policy's per-module lottery ticket counts
	// (nil for policies without tickets), exposing the adaptation state
	// itself — not just its outcome — over STATS.
	Tickets []int64
}

// ticketHolder is implemented by policies exposing lottery ticket counts.
type ticketHolder interface {
	Tickets() []int64
}

// Eddy routes batches of tuples among up to 64 modules.
type Eddy struct {
	modules []Module
	policy  Policy
	output  func(*tuple.Tuple)
	all     tuple.SourceSet // union of the query's stream bits
	stats   Stats
	work    []*tuple.Batch // LIFO work list: intermediate results drain first
	free    []*tuple.Batch // recycled batch headers
	// runScratch is enqueueRuns's reusable run buffer, so run-splitting a
	// mixed ingest batch allocates nothing in steady state.
	runScratch []*tuple.Batch
	selMask    tuple.Mask // reused selection mask for the per-tuple partition adapter
	appliesC   map[tuple.SourceSet]uint64
	buildsC    map[tuple.SourceSet]uint64
	probesC    map[tuple.SourceSet]uint64

	// N-way probe chaining (§4.3 batched decisions + k-ary chains): when
	// enabled, each lineage-homogeneous batch gets one full probe-order
	// plan from policy.ChooseOrder, cached per (source, ready) signature
	// for orderEvery reuses, and after a probe hop the remaining sibling
	// probe-SteMs are marked done without being visited — the alternative
	// intermediates are provably doomed in a private (non-shared) eddy.
	nway       bool
	orderEvery int
	orderCache map[uint64]*orderEntry
	orderSink  func(sig uint64, order []int)

	// complete, when set, observes every tuple that has visited all of
	// its applicable modules — including partial (sub-join) tuples. CACQ
	// uses it to deliver results per query footprint rather than per
	// full-span tuple; it reports whether it kept the tuple itself.
	complete func(t *tuple.Tuple, lineage tuple.Bitset) (kept bool)

	// tracer, when set, samples ingested tuples and records their
	// module-visit path with per-hop latency under traceTag.
	tracer   *metrics.Tracer
	traceTag string

	// clk times sampled hops; injectable so traced runs can execute on a
	// virtual clock in deterministic tests.
	clk chaos.Clock

	// release, when set, receives tuples whose routing is over and which no
	// SteM retains (SetRelease).
	release func(t *tuple.Tuple, lineage tuple.Bitset, rowDead bool)
}

// CheckModuleCount reports whether n modules fit one eddy's 64-bit
// Ready/Done lineage bitmaps, with a descriptive error when they do not.
// Planners call it before construction so the limit surfaces as a plan
// error instead of a panic.
func CheckModuleCount(n int) error {
	if n > 64 {
		return fmt.Errorf("eddy: plan needs %d modules but one eddy routes at most 64 (Ready/Done lineage bitmaps are 64-bit); split the query across multiple eddies or reduce its predicates/joins", n)
	}
	return nil
}

// New creates an eddy over the given modules whose output tuples must span
// allSources. out receives emitted tuples.
func New(allSources tuple.SourceSet, policy Policy, out func(*tuple.Tuple), modules ...Module) *Eddy {
	if err := CheckModuleCount(len(modules)); err != nil {
		panic(err.Error())
	}
	if policy == nil {
		policy = NewFixedPolicy()
	}
	e := &Eddy{
		modules:  modules,
		policy:   policy,
		output:   out,
		all:      allSources,
		appliesC: make(map[tuple.SourceSet]uint64),
		buildsC:  make(map[tuple.SourceSet]uint64),
		clk:      chaos.Real(),
	}
	e.stats.Modules = make([]ModuleStats, len(modules))
	policy.Reset(len(modules))
	e.wirePolicy(policy)
	return e
}

// costSettable is implemented by policies (SelectivityPolicy) that rank by
// observed per-module cost; the eddy feeds them its modules' probe timers.
type costSettable interface {
	SetCostSource(func(idx int) int64)
}

// wirePolicy connects policy extras — currently the cost source — to this
// eddy's module set.
func (e *Eddy) wirePolicy(p Policy) {
	if cs, ok := p.(costSettable); ok {
		mods := e.modules
		cs.SetCostSource(func(idx int) int64 {
			if idx >= 0 && idx < len(mods) {
				if pn, ok := mods[idx].(interface{ ProbeNanos() int64 }); ok {
					return pn.ProbeNanos()
				}
			}
			return 0
		})
	}
}

// orderEntry is one cached probe-order plan.
type orderEntry struct {
	order []int
	left  int
}

// orderCacheCap bounds the per-signature plan cache; signatures are few in
// steady state, so overflow means lineage churn — flush and replan.
const orderCacheCap = 256

// SetNWay enables batch-granular N-way probe-order planning: one
// policy.ChooseOrder call plans the whole chain, reused for every batches
// per (source, ready) signature before the policy is re-consulted.
// every < 1 disables N-way planning and returns to per-hop routing.
func (e *Eddy) SetNWay(every int) {
	if every < 1 {
		e.nway = false
		e.orderEvery = 0
		e.orderCache = nil
		return
	}
	e.nway = true
	e.orderEvery = every
	e.orderCache = make(map[uint64]*orderEntry)
}

// SetOrderSink installs fn to observe every fresh probe-order plan (for
// introspection: orders flow into tcq.routes). Reused plans are not
// re-reported.
func (e *Eddy) SetOrderSink(fn func(sig uint64, order []int)) { e.orderSink = fn }

// SetPolicy replaces the routing policy; tests use it to install a static
// control (FixedPolicy) in place of the one the engine chose. Learned
// state starts fresh; cached probe orders are dropped.
func (e *Eddy) SetPolicy(p Policy) {
	if p == nil {
		p = NewFixedPolicy()
	}
	e.policy = p
	p.Reset(len(e.modules))
	e.wirePolicy(p)
	if e.orderCache != nil {
		e.orderCache = make(map[uint64]*orderEntry)
	}
}

// PolicyInfo reports the active policy's kind and its current module
// ranking (EXPLAIN's probe order) without perturbing policy state.
func (e *Eddy) PolicyInfo() (name string, order []int) {
	return PolicyName(e.policy), e.policy.CurrentOrder(len(e.modules))
}

// Modules returns the attached modules (read-only use).
func (e *Eddy) Modules() []Module { return e.modules }

// SetCompletionHook installs fn to observe every tuple (full or partial
// span) that completes its applicable module set, and makes the eddy a
// shared one: results leave only through fn, never through the eddy's
// output. Shared (CACQ) execution delivers per-query results from this
// hook. fn receives the tuple's lineage (its Queries bitmap) as an
// argument because, when a release func is set and no SteM retains the
// tuple, the eddy has already taken the bitmap off the row: a row the hook
// hands on is lineage-free before anyone else can see it. fn reports
// whether it kept the tuple itself (handed the pointer on) rather than only
// reading it.
func (e *Eddy) SetCompletionHook(fn func(t *tuple.Tuple, lineage tuple.Bitset) (kept bool)) {
	e.complete = fn
}

// SetTracer attaches a sampled lineage tracer; tag identifies this eddy in
// recorded traces (e.g. "q3" or "shared:quotes").
func (e *Eddy) SetTracer(tr *metrics.Tracer, tag string) {
	e.tracer = tr
	e.traceTag = tag
}

// SetRecycler installs a tuple pool that reclaims provably-dead tuples on
// the drop path: SetRelease with a func that Puts every dead row.
func (e *Eddy) SetRecycler(p *tuple.Pool) {
	e.SetRelease(func(t *tuple.Tuple, _ tuple.Bitset, rowDead bool) {
		if rowDead {
			p.Put(t)
		}
	})
}

// SetRelease installs fn to reclaim what a tuple leaves behind once its
// routing is over. It is called only for tuples no SteM retains (their
// source set builds into no module): for one a module dropped, and — in a
// shared eddy — for one that completed. The tuple's lineage is dead then,
// and fn receives it already taken off the row. rowDead reports whether
// the row is dead too: nobody kept it (the completion hook returned false,
// or a module dropped it) and the tracer was not following it. Everything
// else (emitted, kept, sampled, or built into state) stays with its holder;
// the conservative gate means correctness never depends on what fn does
// with the memory.
func (e *Eddy) SetRelease(fn func(t *tuple.Tuple, lineage tuple.Bitset, rowDead bool)) {
	e.release = fn
}

// SetClock replaces the clock used for per-hop trace timing (nil restores
// the real clock). Call before Ingest.
func (e *Eddy) SetClock(clk chaos.Clock) {
	if clk == nil {
		clk = chaos.Real()
	}
	e.clk = clk
}

// InvalidateMasks discards the memoized applicability masks. Call after
// module applicability changes — e.g. when standing queries are added to
// or removed from shared grouped filters.
func (e *Eddy) InvalidateMasks() {
	e.appliesC = make(map[tuple.SourceSet]uint64)
	e.buildsC = make(map[tuple.SourceSet]uint64)
	e.probesC = nil
	if e.orderCache != nil {
		e.orderCache = make(map[uint64]*orderEntry)
	}
}

// Stats returns a snapshot of activity counters.
func (e *Eddy) Stats() Stats {
	s := e.stats
	s.Modules = append([]ModuleStats(nil), e.stats.Modules...)
	if th, ok := e.policy.(ticketHolder); ok {
		s.Tickets = th.Tickets()
	}
	return s
}

// requiredMask returns the bitmap of modules applicable to tuples spanning
// src, memoized per source set.
func (e *Eddy) requiredMask(src tuple.SourceSet) uint64 {
	if m, ok := e.appliesC[src]; ok {
		return m
	}
	var m uint64
	for i, mod := range e.modules {
		if mod.AppliesTo(src) {
			m |= 1 << uint(i)
		}
	}
	//lint:ignore alloccheck memo insert: one map write per distinct lineage signature, amortized across every batch carrying it
	e.appliesC[src] = m
	return m
}

// buildMask returns the bitmap of Builder modules that take tuples spanning
// src as builds.
func (e *Eddy) buildMask(src tuple.SourceSet) uint64 {
	if m, ok := e.buildsC[src]; ok {
		return m
	}
	var m uint64
	for i, mod := range e.modules {
		if b, ok := mod.(Builder); ok && b.BuildsFor(src) {
			m |= 1 << uint(i)
		}
	}
	//lint:ignore alloccheck memo insert: one map write per distinct lineage signature, amortized across every batch carrying it
	e.buildsC[src] = m
	return m
}

// probeMask returns the bitmap of Builder modules (SteMs) that tuples
// spanning src probe — applicable but not build targets.
func (e *Eddy) probeMask(src tuple.SourceSet) uint64 {
	if m, ok := e.probesC[src]; ok {
		return m
	}
	var m uint64
	for i, mod := range e.modules {
		if b, ok := mod.(Builder); ok && mod.AppliesTo(src) && !b.BuildsFor(src) {
			m |= 1 << uint(i)
		}
	}
	if e.probesC == nil {
		//lint:ignore alloccheck lazy memo-map init: once per eddy lifetime
		e.probesC = make(map[tuple.SourceSet]uint64)
	}
	//lint:ignore alloccheck memo insert: one map write per distinct lineage signature, amortized across every batch carrying it
	e.probesC[src] = m
	return m
}

// Ingest accepts a tuple from a source (already widened to the query
// layout) and processes it — and any tuples it spawns — to completion.
func (e *Eddy) Ingest(t *tuple.Tuple) {
	e.stats.Ingested++
	if e.tracer != nil {
		e.tracer.Sample(t, e.traceTag, t.Seq)
	}
	b := e.getBatch()
	b.Tuples = append(b.Tuples, t)
	e.push(b)
	e.drain()
}

// IngestBatch accepts a batch of source tuples (already widened to the
// query layout) and processes them — and any tuples they spawn — to
// completion. Tuples are regrouped into runs of identical (Source, Done)
// lineage, so a mixed batch is split exactly where routing would diverge.
// The caller keeps ownership of b's header and may reuse it on return;
// the tuples themselves now belong to the dataflow.
//
//tcq:hotpath
func (e *Eddy) IngestBatch(b *tuple.Batch) {
	ts := b.Tuples
	if len(ts) == 0 {
		return
	}
	e.stats.Ingested += int64(len(ts))
	if e.tracer != nil {
		for _, t := range ts {
			e.tracer.Sample(t, e.traceTag, t.Seq)
		}
	}
	e.enqueueRuns(ts)
	e.drain()
}

// getBatch returns an empty batch, reusing a previously retired header.
func (e *Eddy) getBatch() *tuple.Batch {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		return b
	}
	return tuple.NewBatch(16)
}

func (e *Eddy) putBatch(b *tuple.Batch) {
	b.Reset()
	e.free = append(e.free, b)
}

// enqueueRuns copies ts into internal work batches, splitting on lineage
// divergence: each run of equal (Source, Done) becomes one batch. Runs are
// pushed in reverse so the LIFO work list drains them in arrival order.
func (e *Eddy) enqueueRuns(ts []*tuple.Tuple) {
	e.runScratch = e.runScratch[:0]
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j].Source == ts[i].Source && ts[j].Done == ts[i].Done {
			j++
		}
		nb := e.getBatch()
		nb.Tuples = append(nb.Tuples, ts[i:j]...)
		e.runScratch = append(e.runScratch, nb)
		i = j
	}
	runs := e.runScratch
	e.stats.Runs += int64(len(runs))
	if len(runs) > 1 {
		e.stats.Splits += int64(len(runs) - 1)
	}
	for i := len(runs) - 1; i >= 0; i-- {
		e.push(runs[i])
	}
	for i := range runs {
		runs[i] = nil
	}
	e.runScratch = runs[:0]
}

func (e *Eddy) push(b *tuple.Batch) { e.work = append(e.work, b) }

func (e *Eddy) pop() *tuple.Batch {
	n := len(e.work) - 1
	b := e.work[n]
	e.work[n] = nil
	e.work = e.work[:n]
	return b
}

func (e *Eddy) drain() {
	for len(e.work) > 0 {
		e.step(e.pop())
	}
}

// step advances one lineage-homogeneous batch by one routing decision —
// the amortization at the heart of batch execution: one policy draw covers
// every tuple in the batch — re-queuing survivors and any outputs.
func (e *Eddy) step(b *tuple.Batch) {
	t0 := b.Tuples[0]
	required := e.requiredMask(t0.Source)
	ready := required &^ t0.Done
	if ready == 0 {
		e.finishBatch(b, required)
		return
	}

	// Builds are routed before anything else (no policy choice), so that
	// the symmetric-join invariant — build precedes probe — always holds.
	var idx int
	if builds := e.buildMask(t0.Source) & ready; builds != 0 {
		idx = trailingZeros(builds)
	} else if e.nway && bits.OnesCount64(ready) > 1 {
		idx = e.chooseNWay(t0, ready)
	} else {
		idx = e.policy.Choose(t0, ready)
		e.stats.Decisions++
		if ready&(1<<uint(idx)) == 0 {
			panic(fmt.Sprintf("eddy: policy chose module %d not in ready set %b", idx, ready))
		}
	}

	mod := e.modules[idx]
	doneBefore := t0.Done
	var outputs []*tuple.Tuple
	var passed int
	if bm, ok := mod.(BatchModule); ok && e.tracer == nil {
		outputs, passed = bm.ProcessBatch(b)
	} else {
		// Per-tuple adapter: modules without a batch entry point, and any
		// batch when tracing is on (per-hop timing needs tuple granularity).
		outputs, passed = e.processSeq(mod, b)
	}
	n := len(b.Tuples)
	ms := &e.stats.Modules[idx]
	ms.Visits += int64(n)
	e.stats.Visits += int64(n)
	ms.Passed += int64(passed)
	ms.Produced += int64(len(outputs))
	// Observe once per tuple so lottery ticket totals and the decay
	// cadence match per-tuple execution; the batch's produced count is
	// attributed to the first observation (at batch size 1 this is
	// exactly the historical Observe call).
	for i := 0; i < n; i++ {
		prod := 0
		if i == 0 {
			prod = len(outputs)
		}
		e.policy.Observe(idx, i < passed, prod)
	}

	bit := uint64(1) << uint(idx)
	// K-ary probe chain pruning: in a private eddy (no completion hook,
	// full-span output only), once a batch takes one probe hop, probing any
	// sibling SteM later could only yield intermediates whose Done set
	// already contains this SteM — they can never complete the full span
	// and are provably dead. Mark those siblings done on the survivors
	// without visiting them. Outputs below keep only the producing
	// module's bit: they span more streams and get a fresh plan.
	var skip uint64
	if e.nway && e.complete == nil && e.all != 0 {
		if pm := e.probeMask(t0.Source); pm&bit != 0 {
			skip = pm & ready &^ bit
		}
	}
	for _, t := range b.Tuples[passed:] {
		e.stats.Dropped++
		if e.tracer != nil && e.tracer.Live(t) {
			e.tracer.Finish(t, false)
		} else if e.release != nil && e.buildMask(t.Source) == 0 {
			// Dead for sure: dropped here, never retained as a build, and
			// invisible to the tracer. Outputs (if any) are independent
			// copies, so handing t's memory back is safe.
			lineage := t.Queries
			t.Queries = nil
			e.release(t, lineage, true)
		}
	}
	b.Tuples = b.Tuples[:passed]

	if len(outputs) > 0 {
		// Join matches inherit the union of work already done by their
		// constituents plus the module that produced them. Reversed so the
		// LIFO drain visits them in the per-tuple engine's order.
		for i, j := 0, len(outputs)-1; i < j; i, j = i+1, j-1 {
			outputs[i], outputs[j] = outputs[j], outputs[i]
		}
		for _, o := range outputs {
			o.MarkDone(doneBefore | bit)
		}
		e.enqueueRuns(outputs)
	}
	if passed == 0 {
		e.putBatch(b)
		return
	}
	if skip != 0 {
		e.stats.NWayPruned += int64(bits.OnesCount64(skip)) * int64(passed)
	}
	for _, t := range b.Tuples {
		t.MarkDone(bit | skip)
	}
	if required&^(doneBefore|bit|skip) == 0 {
		e.finishBatch(b, required)
		return
	}
	e.push(b)
}

// chooseNWay picks the batch's next module from a cached full probe-order
// plan, drawing a fresh plan from the policy only when the cached one has
// been reused orderEvery times (or no plan exists for this signature).
func (e *Eddy) chooseNWay(t0 *tuple.Tuple, ready uint64) int {
	sig := uint64(t0.Source)<<32 ^ ready
	ent := e.orderCache[sig]
	if ent == nil || ent.left <= 0 {
		order := e.policy.ChooseOrder(sig, ready)
		e.stats.Orders++
		e.stats.Decisions++
		if ent == nil {
			if len(e.orderCache) >= orderCacheCap {
				//lint:ignore alloccheck cache flush at the cap: rare by construction (one reset per orderCacheCap distinct signatures)
				e.orderCache = make(map[uint64]*orderEntry)
			}
			//lint:ignore alloccheck plan-cache miss: one entry per distinct lineage signature, reused orderEvery times before redraw
			ent = &orderEntry{}
			//lint:ignore alloccheck plan-cache insert: same amortization as the entry above
			e.orderCache[sig] = ent
		}
		ent.order = append(ent.order[:0], order...)
		ent.left = e.orderEvery
		if e.orderSink != nil {
			e.orderSink(sig, ent.order)
		}
	} else {
		e.stats.OrderReuses++
	}
	ent.left--
	for _, i := range ent.order {
		if ready&(uint64(1)<<uint(i)) != 0 {
			return i
		}
	}
	// The plan missed every ready module (a policy bug or stale plan):
	// fall back to a direct draw with the legacy validity check.
	idx := e.policy.Choose(t0, ready)
	if ready&(uint64(1)<<uint(idx)) == 0 {
		panic(fmt.Sprintf("eddy: policy chose module %d not in ready set %b", idx, ready))
	}
	return idx
}

// processSeq routes a batch through mod one tuple at a time, recording
// survivors in a selection mask and partitioning them to the front of
// b.Tuples in stable order via the shared mask partition.
func (e *Eddy) processSeq(mod Module, b *tuple.Batch) (outputs []*tuple.Tuple, passed int) {
	ts := b.Tuples
	e.selMask.Reset(len(ts))
	for i, t := range ts {
		// Per-hop timing only for sampled tuples: the clock reads stay off
		// the untraced fast path.
		traced := e.tracer != nil && e.tracer.Live(t)
		var hopStart time.Time
		if traced {
			hopStart = e.clk.Now()
		}
		outs, pass := mod.Process(t)
		if traced {
			e.tracer.Span(t, mod.Name(), hopStart, e.clk.Now(), pass, len(outs))
			for _, o := range outs {
				e.tracer.Fork(t, o)
			}
		}
		outputs = append(outputs, outs...)
		if pass {
			e.selMask.Set(i)
		}
	}
	return outputs, b.PartitionByMask(&e.selMask)
}

// finishBatch retires a batch whose tuples have visited every applicable
// module, then recycles the batch header.
func (e *Eddy) finishBatch(b *tuple.Batch, required uint64) {
	for _, t := range b.Tuples {
		e.finish(t, required)
	}
	e.putBatch(b)
}

// finish handles a tuple that has visited every applicable module: tuples
// spanning the full stream set are emitted; partial tuples are consumed
// (they live on inside SteMs and in the matches they seeded).
func (e *Eddy) finish(t *tuple.Tuple, required uint64) {
	if e.complete != nil {
		e.finishShared(t)
		return
	}
	if t.Source.Contains(e.all) && e.all.Contains(t.Source) {
		if t.Queries != nil && !t.Queries.Any() {
			e.stats.Dropped++
			e.traceFinish(t, false)
			return
		}
		e.stats.Emitted++
		e.traceFinish(t, true)
		if e.output != nil {
			e.output(t)
		}
		return
	}
	// Partial tuple: consumed, not dropped — it was built into SteMs.
	e.traceFinish(t, false)
	_ = required
}

// finishShared is finish in a shared eddy: the completion hook delivers t,
// and completion with live lineage is delivery, so the trace records it as
// emitted. t's routing is over here, so unless a SteM holds it (and reads
// its lineage on every probe) the lineage comes off the row before the hook
// runs and goes to the release func afterwards, with the row when the hook
// did not keep it and the tracer was not following it.
func (e *Eddy) finishShared(t *tuple.Tuple) {
	traced := e.tracer != nil && e.tracer.Live(t)
	free := e.release != nil && e.buildMask(t.Source) == 0
	lineage := t.Queries
	if free {
		t.Queries = nil
	}
	kept := e.complete(t, lineage)
	e.traceFinish(t, lineage.Any())
	if free {
		e.release(t, lineage, !kept && !traced)
	}
}

func (e *Eddy) traceFinish(t *tuple.Tuple, emitted bool) {
	if e.tracer != nil {
		e.tracer.Finish(t, emitted)
	}
}

func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

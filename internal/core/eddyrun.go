package core

import (
	"fmt"
	"sync"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

// eddyHost is the one contract behind which every eddy in the engine is
// observed (internal/eddy/host.go). *eddy.Eddy and *eddy.ParallelEddy
// satisfy it, so a private query's inline or partitioned eddy and a shared
// class's cacq engine, at one worker or many, are all driven the same way.
type eddyHost interface {
	Stats() eddy.Stats
	ModuleNames() []string
	ModuleProbeNanos() []int64
	SetProbeTimer(clk chaos.Clock, every int)
	PolicyInfo() (name string, order []int)
}

// eddyDataflow is an eddyHost a private runtime also feeds.
type eddyDataflow interface {
	eddyHost
	Ingest(*tuple.Tuple)
	IngestBatch(*tuple.Batch)
}

// eddyRuntime executes an unwindowed continuous query adaptively: an eddy
// routes tuple batches among per-predicate filters and per-stream SteMs
// (the Fig. 2 configuration), re-optimizing order continuously. Ungrouped
// aggregates fold incrementally (an implicit landmark window over the
// whole stream), emitting the running value after each change.
//
// The eddy runs on one of two hosts. With Workers == 1, or a join set that
// cannot be hash-partitioned, it is one *eddy.Eddy called inline on the
// stepping DU — no goroutine, no queue. Otherwise Flux-style partitioning
// is a stage in front of the same module set: a *eddy.ParallelEddy hashes
// tuples to Workers shard eddies, each with a private copy of the modules
// (its key range's SteM partitions), behind an ordered (single stream) or
// arrival-order (multi-stream join) merge. Either way the post-eddy
// pipeline (aggregate, projection, DISTINCT) runs single-threaded: on the
// stepping DU inline, on the merge goroutine when partitioned.
type eddyRuntime struct {
	q    *RunningQuery
	host eddyDataflow
	// stems are the inline host's SteMs, for per-SteM series.
	stems []*ops.SteMModule

	out     outPipe
	drainer *batchDrain
	pool    *tuple.Pool
	wide    tuple.Batch
	outBuf  []*tuple.Tuple // inline only: results of the current step

	// mu serializes the stepping DU against the control plane (stats,
	// telemetry and Deregister-time close arrive on client goroutines
	// while the query runs).
	mu       sync.Mutex
	stopped  bool
	unregPar func() // shard-layer metric unregistration (partitioned only)
}

// buildQueryModules constructs a fresh module set for a plan: one filter
// per selection and one SteM per join-participating stream. Each call
// returns independent state, so parallel shards build their partitions of
// the same logical plan by calling it once per shard.
func buildQueryModules(plan *sql.Plan) (modules []eddy.Module, stems []*ops.SteMModule) {
	layout := plan.Layout
	for i, p := range plan.Selections {
		modules = append(modules, ops.NewFilter(fmt.Sprintf("sel%d", i), layout, p))
	}
	if len(plan.Joins) > 0 {
		// One SteM per stream that participates in a join edge.
		participates := joinStreams(plan)
		for s := range layout.Schemas {
			if !participates[s] {
				continue
			}
			preds, keyCol := storedSidePreds(plan, s)
			var sopts []stem.Option
			if keyCol >= 0 {
				sopts = append(sopts, stem.WithIndex(keyCol))
			}
			st := stem.New(layout.Schemas[s].Relation, tuple.SingleSource(s), layout, sopts...)
			sm := ops.NewSteMModule(st, layout, preds)
			stems = append(stems, sm)
			modules = append(modules, sm)
		}
	}
	return modules, stems
}

// joinStreams returns the FROM positions a plan's join edges touch: the
// streams that get a SteM.
func joinStreams(plan *sql.Plan) map[int]bool {
	participates := map[int]bool{}
	for _, j := range plan.Joins {
		participates[j.StreamA] = true
		participates[j.StreamB] = true
	}
	return participates
}

// storedSidePreds collects the join predicates whose stored side is FROM
// position s (LeftCol probing, RightCol stored) and the first equality
// column to index the SteM on, or -1.
func storedSidePreds(plan *sql.Plan, s int) (preds []expr.JoinPredicate, keyCol int) {
	keyCol = -1
	for _, j := range plan.Joins {
		switch s {
		case j.StreamA:
			preds = append(preds, expr.JoinPredicate{LeftCol: j.ColB, Op: j.Op.Flip(), RightCol: j.ColA})
			if j.Op == expr.Eq && keyCol < 0 {
				keyCol = j.ColA
			}
		case j.StreamB:
			preds = append(preds, expr.JoinPredicate{LeftCol: j.ColA, Op: j.Op, RightCol: j.ColB})
			if j.Op == expr.Eq && keyCol < 0 {
				keyCol = j.ColB
			}
		}
	}
	return preds, keyCol
}

// parallelKeyColumns decides whether a plan's join set is partitionable
// and on which wide-row column each stream hashes: every join edge must be
// an equijoin and all join columns must fall into one equivalence class
// (cacq.PartitionColumns — the same rule shared classes partition by).
// ok=false (multi-class join sets, non-equi joins) keeps the plan on the
// inline host.
func parallelKeyColumns(plan *sql.Plan) (cols []int, ok bool) {
	edges := make([]cacq.JoinSpec, len(plan.Joins))
	for i, j := range plan.Joins {
		if j.Op != expr.Eq {
			return nil, false
		}
		edges[i] = cacq.JoinSpec{StreamA: j.StreamA, StreamB: j.StreamB, ColA: j.ColA, ColB: j.ColB}
	}
	return cacq.PartitionColumns(plan.Layout, edges)
}

// policySeed is the runtime's historical seed rule: q.ID+1 for the inline
// eddy (shard -1), q.ID*64+shard+1 for shard eddies.
func (rt *eddyRuntime) policySeed(shard int) int64 {
	if shard < 0 {
		return int64(rt.q.ID) + 1
	}
	return int64(rt.q.ID)*64 + int64(shard) + 1
}

func newEddyRuntime(q *RunningQuery) (runtime, error) {
	plan := q.Plan
	e := q.engine
	// Emissions from this runtime are always fresh sole-reference tuples
	// (Merge / Project.Apply / LandmarkAgg.Result allocate; a completed
	// single-stream tuple is an unretained Widen result), so the pull
	// egress may recycle them once they age out. Set before any emission
	// (table replay below) or merge-goroutine spawn can observe it.
	q.recyclable = true
	rt := &eddyRuntime{q: q, out: newOutPipe(plan), pool: e.recycler}
	// The pipeline may recycle the wide tuples it consumes (aggregate
	// inputs, projection inputs, DISTINCT rejects): emissions are sole
	// references here. A live tracer keys spans by tuple identity, so
	// recycling stays off when tracing is on.
	if e.tracer == nil {
		rt.out.pool = rt.pool
	}

	modules, stems := buildQueryModules(plan)
	if err := eddy.CheckModuleCount(len(modules)); err != nil {
		return nil, err
	}
	// newEddy wires one eddy over its own module set: the inline host
	// (shard -1) or one shard of the partitioned one.
	newEddy := func(shard int, emit func(*tuple.Tuple), mods []eddy.Module) *eddy.Eddy {
		pol, reuse := route(plan, rt.policySeed(shard))
		ed := eddy.New(plan.Footprint, pol, emit, mods...)
		ed.SetClock(e.opts.Clock)
		ed.SetRecycler(rt.pool)
		if reuse > 0 {
			ed.SetNWay(reuse)
			owner := q.label
			if shard >= 0 {
				owner = fmt.Sprintf("%s/s%d", q.label, shard)
			}
			if sink := e.orderSink(owner, ed.ModuleNames()); sink != nil {
				ed.SetOrderSink(sink)
			}
		}
		if e.opts.Introspect {
			ed.SetProbeTimer(e.opts.Clock, 0)
		}
		return ed
	}

	if keyCols, ok := parallelKeyColumns(plan); ok && e.opts.Workers > 1 {
		// Ordered merge requires a globally monotone key across all inputs;
		// Seq counters are per-stream, so only single-entry plans qualify.
		// Multi-stream joins have no defined cross-stream arrival order — the
		// arrival-order merge is their sequential-equivalent semantics.
		var orderBy func(*tuple.Tuple) int64
		if len(plan.Entries) == 1 {
			orderBy = func(t *tuple.Tuple) int64 { return t.Seq }
		}
		pe := eddy.NewParallel(eddy.ParallelConfig{
			Workers:   e.opts.Workers,
			BatchSize: e.opts.BatchSize,
			Partition: eddy.KeyPartition(keyCols),
			NewShard: func(shard int, emit func(*tuple.Tuple)) eddy.Shard {
				mods, _ := buildQueryModules(plan)
				return newEddy(shard, emit, mods)
			},
			Merge:   rt.deliver,
			OrderBy: orderBy,
		})
		rt.host, q.parStats = pe, pe.ParStats
		rt.unregPar = pe.RegisterMetrics(e.reg, q.label)
	} else {
		ed := newEddy(-1, rt.output, modules)
		// Tracing follows individual tuples through one eddy's hops; only
		// the inline host offers it (shards would interleave hops).
		if e.tracer != nil {
			ed.SetTracer(e.tracer, q.label)
		}
		rt.stems = stems
		rt.host = ed
	}

	// Static tables in the FROM list hold data that arrived before the
	// query registered; replay it now (streams, by CQ semantics, are
	// consumed from registration onward) — through the partitioner when
	// there is one, so each shard builds its key range's slice of table
	// state. Table rows stay in the stream history: plain Widen, never
	// recycled.
	preSeq := make([]int64, len(plan.Entries))
	for pos, entry := range plan.Entries {
		if entry.Kind != catalog.Table {
			continue
		}
		rows, err := e.tableContents(entry)
		if err != nil {
			rt.shutdown()
			return nil, err
		}
		for _, t := range rows {
			if t.Seq > preSeq[pos] {
				preSeq[pos] = t.Seq
			}
			rt.host.Ingest(plan.Layout.Widen(pos, t))
		}
	}
	rt.flush()

	rt.drainer = newBatchDrain(q.inputs, preSeq, rt.pool, e.opts.BatchSize, 256)
	var names []string
	if rt.sharded() == nil {
		names = rt.host.ModuleNames()
	}
	registerEddyMetrics(q.metrics(), fmt.Sprintf(`query="%d"`, q.ID), names, rt.stems, rt.stats, rt.stemStats)
	return rt, nil
}

// sharded returns the partitioned host, or nil when the eddy runs inline.
func (rt *eddyRuntime) sharded() *eddy.ParallelEddy {
	pe, _ := rt.host.(*eddy.ParallelEddy)
	return pe
}

// output collects the inline eddy's completed tuples through the post-eddy
// pipeline into outBuf; flush hands the buffer to egress once per drain.
func (rt *eddyRuntime) output(t *tuple.Tuple) {
	if out := rt.out.route(t); out != nil {
		rt.outBuf = append(rt.outBuf, out)
	}
}

// deliver is the partitioned host's merge stage: the same pipeline, run on
// the merge goroutine and delivering directly.
func (rt *eddyRuntime) deliver(t *tuple.Tuple) {
	if out := rt.out.route(t); out != nil {
		rt.q.emit(out)
	}
}

// flush ends an input step: partial shard batches go to their workers
// (the inline eddy ran every tuple to completion inside IngestBatch) and
// collected results to egress.
func (rt *eddyRuntime) flush() {
	if pe := rt.sharded(); pe != nil {
		pe.Flush()
	}
	if len(rt.outBuf) == 0 {
		return
	}
	rt.q.emitBatch(rt.outBuf)
	for i := range rt.outBuf {
		rt.outBuf[i] = nil
	}
	rt.outBuf = rt.outBuf[:0]
}

// ingest widens one drained batch into the wide-batch scratch and routes
// it through the host — one interface dispatch per drained batch. The
// narrow subscriber clones are spent once widened (stream history retains
// the originals).
func (rt *eddyRuntime) ingest(pos int, ts []*tuple.Tuple) {
	layout := rt.q.Plan.Layout
	rt.wide.Reset()
	for _, t := range ts {
		rt.wide.Append(layout.WidenUsing(rt.pool, pos, t))
		rt.pool.Put(t)
	}
	rt.host.IngestBatch(&rt.wide)
	rt.wide.Reset()
}

func (rt *eddyRuntime) step() (bool, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stopped {
		return false, true
	}
	progressed, allDrained := rt.drainer.drain(rt.ingest)
	if progressed {
		rt.flush()
	}
	if allDrained {
		// Inputs are gone for good: flush the shards and drain the merge
		// so the final results are emitted before the DU retires.
		rt.shutdown()
	}
	return progressed, allDrained
}

// shutdown (mu held) drains and stops the host. Idempotent.
func (rt *eddyRuntime) shutdown() {
	if rt.stopped {
		return
	}
	rt.stopped = true
	if pe := rt.sharded(); pe != nil {
		pe.Close()
		rt.unregPar()
	}
}

// close stops a partitioned host's workers and merge stage without waiting
// for the DU to observe drained inputs, so no goroutines outlive the query.
func (rt *eddyRuntime) close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.shutdown()
}

func (rt *eddyRuntime) control(fn func(h eddyHost)) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fn(rt.host)
	return true
}

func (rt *eddyRuntime) stages() []ModuleTelemetry { return nil }

// stats snapshots the host's counters under the runtime lock.
func (rt *eddyRuntime) stats() eddy.Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.host.Stats()
}

// stemStats snapshots one SteM's counters under the runtime lock.
func (rt *eddyRuntime) stemStats(i int) stem.Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stems[i].SteM().Stats()
}

// registerEddyMetrics exports one eddy host's counters under owner, the
// label naming it (query="3" for a private eddy, stream="S+R|0=2" for a
// shared class): the eight aggregates and, for an inline host, per-module
// routing state (names, in Stats order) and per-SteM counters. stats and
// stemStats snapshot under the lock that excludes the host's stepping DU. A
// partitioned host snapshots under a shard barrier, so it passes no names
// or stems and stays at the aggregates (plus its own shard-layer series).
func registerEddyMetrics(reg recorder, owner string, names []string, stems []*ops.SteMModule,
	stats func() eddy.Stats, stemStats func(i int) stem.Stats) {
	lbl := "{" + owner + "}"
	for name, get := range map[string]func(eddy.Stats) int64{
		"tcq_eddy_ingested_total":       func(s eddy.Stats) int64 { return s.Ingested },
		"tcq_eddy_emitted_total":        func(s eddy.Stats) int64 { return s.Emitted },
		"tcq_eddy_dropped_total":        func(s eddy.Stats) int64 { return s.Dropped },
		"tcq_eddy_decisions_total":      func(s eddy.Stats) int64 { return s.Decisions },
		"tcq_eddy_visits_total":         func(s eddy.Stats) int64 { return s.Visits },
		"tcq_policy_orders_total":       func(s eddy.Stats) int64 { return s.Orders },
		"tcq_policy_order_reuses_total": func(s eddy.Stats) int64 { return s.OrderReuses },
		"tcq_nway_pruned_total":         func(s eddy.Stats) int64 { return s.NWayPruned },
	} {
		get := get
		reg.RegisterFunc(name+lbl, metrics.KindCounter, func() float64 {
			return float64(get(stats()))
		})
	}
	for i, name := range names {
		i := i
		mlbl := fmt.Sprintf(`{%s,module=%q}`, owner, name)
		reg.RegisterFunc("tcq_eddy_module_visits_total"+mlbl, metrics.KindCounter, func() float64 {
			return float64(stats().Modules[i].Visits)
		})
		reg.RegisterFunc("tcq_eddy_module_produced_total"+mlbl, metrics.KindCounter, func() float64 {
			return float64(stats().Modules[i].Produced)
		})
		reg.RegisterFunc("tcq_eddy_module_selectivity"+mlbl, metrics.KindGauge, func() float64 {
			return stats().Modules[i].Selectivity()
		})
		reg.RegisterFunc("tcq_eddy_module_tickets"+mlbl, metrics.KindGauge, func() float64 {
			if tk := stats().Tickets; i < len(tk) {
				return float64(tk[i])
			}
			return 0
		})
	}
	for i, sm := range stems {
		i := i
		slbl := fmt.Sprintf(`{%s,stem=%q}`, owner, sm.SteM().Name())
		for name, get := range map[string]func(st stem.Stats) int64{
			"tcq_stem_builds_total":  func(st stem.Stats) int64 { return st.Builds },
			"tcq_stem_probes_total":  func(st stem.Stats) int64 { return st.Probes },
			"tcq_stem_matches_total": func(st stem.Stats) int64 { return st.Matches },
			"tcq_stem_evicted_total": func(st stem.Stats) int64 { return st.Evicted },
		} {
			get := get
			reg.RegisterFunc(name+slbl, metrics.KindCounter, func() float64 {
				return float64(get(stemStats(i)))
			})
		}
		reg.RegisterFunc("tcq_stem_size"+slbl, metrics.KindGauge, func() float64 {
			return float64(stemStats(i).Size)
		})
	}
}

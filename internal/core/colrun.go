package core

import (
	"fmt"
	"sync"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

// columnarEligible reports whether a plan can run on the columnar
// runtime: an unwindowed two-stream plan (self-joins included) whose
// joins are all equijoins between the two FROM positions, with no
// aggregates, grouping, DISTINCT, ordering, limit, or static tables.
// Everything else stays on its previous runtime, bit-identical.
func columnarEligible(plan *sql.Plan) bool {
	if len(plan.Entries) != 2 ||
		plan.Entries[0].Kind != catalog.Stream ||
		plan.Entries[1].Kind != catalog.Stream ||
		plan.Loop != nil || plan.HasAgg() || len(plan.GroupBy) > 0 ||
		plan.Distinct || plan.OrderCol >= 0 || plan.Limit >= 0 ||
		len(plan.Joins) == 0 {
		return false
	}
	for _, j := range plan.Joins {
		if j.Op != expr.Eq {
			return false
		}
		ab := j.StreamA == 0 && j.StreamB == 1
		ba := j.StreamA == 1 && j.StreamB == 0
		if !ab && !ba {
			return false
		}
	}
	return true
}

// colRuntime executes an eligible plan end-to-end on struct-of-arrays
// blocks (Options.Columnar): drained subscriber clones are widened
// directly into an ingress block (and recycled), selections run as tight
// loops down single columns clearing a selection mask, surviving rows
// build into columnar SteMs and probe the opposite SteM's segment store,
// and matches merge column-wise — projection fused — into output blocks
// handed whole to the pull egress. Every block comes from a per-query
// arena, so in steady state the hot path performs no per-tuple
// allocation at all (E17 measures ~0 allocs/tuple on the E14 workload).
//
// Routing is static (filters, then build, then probe) rather than
// adaptive: for the supported shapes the emitted multiset is the same as
// the eddy's under any routing order — a selection can run before or
// after the build because a stored row that fails its selection can only
// reach the output through a merge, and the merge output re-applies the
// selection (classic predicate pushdown). columnar_equiv_test.go pins
// the equivalence differentially against the row-at-a-time runtime.
type colRuntime struct {
	q       *RunningQuery
	layout  *tuple.Layout
	arena   *tuple.Arena
	pool    *tuple.Pool
	drainer *batchDrain

	width    int
	project  []int // nil = identity
	outWidth int
	outCap   int

	filters [2][]*ops.Filter
	stems   [2]*stem.ColSteM
	spanLo  [2]int
	spanHi  [2]int

	ingress *tuple.Block
	sel     tuple.Mask
	out     *tuple.Block

	// mu serializes the stepping DU against stat readers (metric scrapes
	// run on client goroutines while the query runs).
	mu sync.Mutex
}

func newColRuntime(q *RunningQuery) (runtime, error) {
	plan := q.Plan
	layout := plan.Layout
	// Emitted blocks are sole references: the pull egress owns their
	// memory and releases them to the arena when they age out.
	q.recyclable = true
	rt := &colRuntime{
		q:       q,
		layout:  layout,
		arena:   tuple.NewArena(),
		pool:    q.engine.recycler,
		width:   len(layout.Wide.Columns),
		project: plan.Project,
	}
	rt.outWidth = rt.width
	if rt.project != nil {
		rt.outWidth = len(rt.project)
	}
	rt.outCap = 256
	if bs := q.engine.opts.BatchSize; bs > rt.outCap {
		rt.outCap = bs
	}
	for pos := range plan.Entries {
		off := layout.Offsets[pos]
		rt.spanLo[pos] = off
		rt.spanHi[pos] = off + len(layout.Schemas[pos].Columns)
	}
	for i, p := range plan.Selections {
		pos := rt.ownerPos(p.Col)
		rt.filters[pos] = append(rt.filters[pos],
			ops.NewFilter(fmt.Sprintf("sel%d", i), layout, p))
	}
	for s := 0; s < 2; s++ {
		preds, _ := storedSidePreds(plan, s)
		rt.stems[s] = stem.NewColSteM(layout.Schemas[s].Relation,
			tuple.SingleSource(s), layout, preds, rt.arena)
	}
	rt.drainer = newBatchDrain(q.inputs, make([]int64, len(plan.Entries)),
		rt.pool, q.engine.opts.BatchSize, 256)
	rt.registerMetrics(queryMetrics{q})
	return rt, nil
}

// ownerPos maps a wide column to the FROM position owning it.
func (rt *colRuntime) ownerPos(col int) int {
	if col >= rt.spanLo[1] && col < rt.spanHi[1] {
		return 1
	}
	return 0
}

// ingest converts one drained batch into columnar form and runs it
// through the static filter → build → probe pipeline.
//
//tcq:hotpath
func (rt *colRuntime) ingest(pos int, ts []*tuple.Tuple) {
	blk := rt.ingress
	if blk == nil || blk.Cap() < len(ts) {
		if blk != nil {
			blk.Release()
		}
		blk = rt.arena.Get(rt.width, len(ts))
		rt.ingress = blk
	}
	blk.Reset()
	for _, t := range ts {
		blk.AppendWidened(rt.layout, pos, t)
		if rt.pool != nil {
			rt.pool.Put(t)
		}
	}
	rt.sel.ResetSet(blk.Len())
	for _, f := range rt.filters[pos] {
		f.EvalCols(blk, &rt.sel)
	}
	if rt.sel.None() {
		return
	}
	rt.stems[pos].BuildCols(blk, &rt.sel)
	other := 1 - pos
	lo, hi := rt.spanLo[other], rt.spanHi[other]
	rt.stems[other].ProbeCols(blk, &rt.sel, func(seg *tuple.Block, brow, prow int) {
		rt.outBlock().AppendMergedProjected(blk, prow, seg, brow, lo, hi, rt.project)
	})
}

// outBlock returns the current output block with room for one row,
// emitting and replacing it when full.
//
//tcq:hotpath
func (rt *colRuntime) outBlock() *tuple.Block {
	if rt.out == nil {
		rt.out = rt.arena.Get(rt.outWidth, rt.outCap)
	} else if rt.out.Full() {
		rt.q.emitBlock(rt.out)
		rt.out = rt.arena.Get(rt.outWidth, rt.outCap)
	}
	return rt.out
}

// flushOut emits any partial output block (once per step, so batching
// never adds more than one drain cycle of result latency).
//
//tcq:hotpath
func (rt *colRuntime) flushOut() {
	if rt.out != nil && rt.out.Len() > 0 {
		rt.q.emitBlock(rt.out)
		rt.out = nil
	}
}

func (rt *colRuntime) step() (bool, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	progressed, allDrained := rt.drainer.drain(rt.ingest)
	rt.flushOut()
	return progressed, allDrained
}

// close is a no-op: the columnar pipeline runs entirely on the stepping DU.
func (rt *colRuntime) close() {}

// control reports false: routing is static, there is no eddy to re-route.
func (rt *colRuntime) control(func(eddyHost, func(int) int64)) bool { return false }

// stages reports the two columnar SteMs from the counters they keep: rows
// that survived their position's filters and built in, plus probes from
// the opposite side, against the matches produced.
func (rt *colRuntime) stages() []ModuleTelemetry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rows := make([]ModuleTelemetry, len(rt.stems))
	for i, sm := range rt.stems {
		st := sm.Stats()
		rows[i] = stageRow(rt.q.label, "SteM("+sm.Name()+")", st.Builds+st.Probes, st.Matches)
	}
	return rows
}

// stageRow is one pipeline stage of a runtime without an eddy, in
// ModuleTelemetry shape: what entered the stage and what it generated. A
// stage has no routing choice to learn, so selectivity reads 1.
func stageRow(owner, name string, visits, produced int64) ModuleTelemetry {
	return ModuleTelemetry{Owner: owner, Module: name, Visits: visits, Produced: produced, Selectivity: 1}
}

// registerMetrics exports the columnar SteMs' and the block arena's series.
func (rt *colRuntime) registerMetrics(reg queryMetrics) {
	for i := range rt.stems {
		i := i
		slbl := fmt.Sprintf(`{query="%d",stem=%q}`, rt.q.ID, rt.stems[i].Name())
		for name, get := range map[string]func(stem.ColStats) int64{
			"tcq_stem_builds_total":  func(st stem.ColStats) int64 { return st.Builds },
			"tcq_stem_probes_total":  func(st stem.ColStats) int64 { return st.Probes },
			"tcq_stem_matches_total": func(st stem.ColStats) int64 { return st.Matches },
		} {
			get := get
			reg.RegisterFunc(name+slbl, metrics.KindCounter, func() float64 {
				return float64(get(rt.stemStats(i)))
			})
		}
		reg.RegisterFunc("tcq_stem_size"+slbl, metrics.KindGauge, func() float64 {
			return float64(rt.stemStats(i).Size)
		})
	}
	lbl := fmt.Sprintf(`{query="%d"}`, rt.q.ID)
	for name, get := range map[string]func(gets, reuses, releases int64) int64{
		"tcq_arena_gets_total":     func(g, _, _ int64) int64 { return g },
		"tcq_arena_reuses_total":   func(_, r, _ int64) int64 { return r },
		"tcq_arena_releases_total": func(_, _, r int64) int64 { return r },
	} {
		get := get
		reg.RegisterFunc(name+lbl, metrics.KindCounter, func() float64 {
			return float64(get(rt.ArenaStats()))
		})
	}
}

// stemStats snapshots one columnar SteM's counters under the runtime
// lock.
func (rt *colRuntime) stemStats(i int) stem.ColStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stems[i].Stats()
}

// ArenaStats exposes the block arena's get/reuse/release counters.
func (rt *colRuntime) ArenaStats() (gets, reuses, releases int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.arena.Stats()
}

package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// windowRuntime executes a windowed query with the paper's
// sequence-of-sets semantics (§4.1): for every for-loop instance it
// evaluates the query over each stream's declared window. Stream history
// needed by past or lagging windows is preloaded from the engine's
// spool/history, so newly registered queries can reach back in time
// (PSoup's "new queries over old data").
type windowRuntime struct {
	q      *RunningQuery
	loop   *window.Loop
	layout *tuple.Layout

	// winFor[pos] is the WindowIs declaration index for FROM position
	// pos, or -1 for static tables.
	winFor  []int
	buffers []*window.Buffer // per windowed position, unless panes or incJoin
	preSeq  []int64          // max preloaded Seq per position (dedup)
	maxTime []int64          // newest window-time seen per position
	drainer *batchDrain
	pool    *tuple.Pool

	// single is the one windowed FROM position of a forward loop, or -1:
	// only then is "where in the arrival order did the window close" a
	// property of one stream, so only then does intake fire at the arrival
	// position. Across several windowed positions the interleaving is
	// undefined and instances fire between drains.
	single int
	// quietSince is when step first found the pending instance's right edge
	// reached and nothing arriving (zero while tuples flow); see quiet.
	quietSince time.Time
	// firedRight[pos] is the last fired forward-loop instance's right
	// edge: a tuple arriving at or below it missed that instance.
	firedRight []int64
	// Per windowed position: absorbed counts tuples taken in, admitted those
	// that passed the position's selections, held the admitted rows its
	// buffer, SteM or live panes hold now. late counts tuples at or below
	// firedRight, scanned the rows aggregation has read: rows folded into
	// panes, or rows fires read back. Atomic because client goroutines read
	// them mid-step; one add per absorbed batch or fire, none per tuple.
	absorbed, admitted, held []atomic.Int64
	late, scanned            atomic.Int64

	selsFor [][]expr.Predicate // per-position single-stream selections
	wide    []*tuple.Tuple     // absorb's scratch: one batch's admitted rows
	agg     *ops.Aggregator
	proj    *ops.Project

	// panes is the pane path (see newPanes): an aggregate over one sliding
	// or landmark window folds each admitted row into its pane at arrival,
	// keeps no rows, and fires by combining the instance's panes.
	panes *ops.PaneAgg

	// incJoin is the sliding two-stream join fast path: matches are
	// produced incrementally through SteMs as tuples arrive (the
	// symmetric-join dataflow of Fig. 2) and window instances select from
	// the materialized match buffer, instead of re-joining both windows
	// per instance.
	incJoin *incJoinState

	// fireLat samples the wall time to evaluate and emit one window
	// instance (the query's emission latency).
	fireLat *metrics.Histogram

	// pend is a forward loop's next instance to fire, at loop value nextT;
	// cached so firing checks allocate nothing. finished once the loop
	// condition no longer holds there (or, any loop, all instances fired).
	nextT    int64
	pend     window.Instance
	finished bool
	// queuedAtEnd is how many rows had entered the input queues when the
	// loop ended and closed them: all that ever will.
	queuedAtEnd int64
}

const maxLoopInstances = 100000

// windowQuiet is how long a stream must bring nothing before a pending
// instance fires on data that has reached, but not passed, its right edge
// (see quiet). Lateness itself stays fixed at 0.
const windowQuiet = 5 * time.Millisecond

func newWindowRuntime(q *RunningQuery) (runtime, error) {
	plan := q.Plan
	rt := &windowRuntime{
		q:       q,
		loop:    plan.Loop,
		layout:  plan.Layout,
		winFor:  make([]int, len(plan.Entries)),
		buffers: make([]*window.Buffer, len(plan.Entries)),
		preSeq:  make([]int64, len(plan.Entries)),
		maxTime: make([]int64, len(plan.Entries)),
		pool:    q.engine.recycler,

		firedRight: make([]int64, len(plan.Entries)),
		absorbed:   make([]atomic.Int64, len(plan.Entries)),
		admitted:   make([]atomic.Int64, len(plan.Entries)),
		held:       make([]atomic.Int64, len(plan.Entries)),
	}

	// Map WindowIs declarations to FROM positions.
	windowed := 0 // positions a forward loop windows
	for pos := range plan.Entries {
		rt.winFor[pos] = -1
		ref := plan.Query.From[pos]
		for wi, w := range plan.Loop.Windows {
			if w.Stream == ref.Ref() || w.Stream == ref.Name {
				rt.winFor[pos] = wi
			}
		}
		rt.maxTime[pos] = -1 << 62
		rt.firedRight[pos] = -1 << 62
		if rt.winFor[pos] >= 0 && plan.Loop.Step > 0 {
			windowed++
			rt.single = pos
		}
	}
	if windowed != 1 {
		rt.single = -1
	}

	// Partition selections by owning position.
	rt.selsFor = make([][]expr.Predicate, len(plan.Entries))
	for _, p := range plan.Selections {
		pos := plan.Layout.Owner(p.Col)
		rt.selsFor[pos] = append(rt.selsFor[pos], p)
	}

	if plan.HasAgg() {
		rt.agg = ops.NewAggregator(plan.GroupBy, plan.Aggs...)
		rt.panes = newPanes(plan, rt.winFor[0])
	} else if plan.Project != nil {
		rt.proj = ops.NewProject(plan.Project...)
	}

	// The incremental symmetric-join fast path replaces the per-instance
	// window buffers when the plan shape allows it.
	rt.incJoin = newIncJoin(rt)

	// Preload history for windowed streams.
	for pos, entry := range plan.Entries {
		if rt.winFor[pos] < 0 {
			continue
		}
		if rt.incJoin == nil && rt.panes == nil {
			rt.buffers[pos] = window.NewBuffer(plan.TimeKind)
		}
		st, err := q.engine.stream(entry.Name)
		if err != nil {
			return nil, err
		}
		hist, err := st.historyRange(-1<<62, 1<<62)
		if err != nil {
			return nil, err
		}
		rt.absorb(pos, hist)
		for _, t := range hist {
			if t.Seq > rt.preSeq[pos] {
				rt.preSeq[pos] = t.Seq
			}
		}
	}
	rt.wide = nil // history-sized; arrivals come a drain batch at a time

	rt.drainer = newBatchDrain(q.inputs, rt.preSeq, rt.pool, q.engine.opts.BatchSize, 512)
	reg := q.metrics()
	lbl := fmt.Sprintf(`{query="%d"}`, q.ID)
	// Recorded with the query's series so teardown drops the histogram too.
	rt.fireLat = q.engine.reg.Histogram("tcq_window_fire_seconds"+lbl, 256)
	q.metricNames = append(q.metricNames, "tcq_window_fire_seconds"+lbl)
	reg.RegisterFunc("tcq_window_late_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(rt.late.Load())
	})
	reg.RegisterFunc("tcq_window_rows_scanned_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(rt.scanned.Load())
	})
	reg.RegisterFunc("tcq_window_buffer_rows"+lbl, metrics.KindGauge, func() float64 {
		var n int64
		for pos := range rt.held {
			n += rt.held[pos].Load()
		}
		return float64(n)
	})
	if rt.loop.Step > 0 {
		// Instances the preloaded history already reaches fire now: history
		// is complete, there is nothing to wait for.
		rt.setNext(plan.Loop.Init)
		rt.fireReady(false)
		return rt, nil
	}
	// Snapshot or backward loop: every instance is anchored at or below
	// Init and all fire together once data reaches the highest right edge,
	// so the "instance" reached waits on carries that edge everywhere.
	var need int64 = -1 << 62
	rt.loop.Instances(maxLoopInstances, func(inst window.Instance) bool {
		for _, iv := range inst.Windows {
			if iv.Right > need {
				need = iv.Right
			}
		}
		return true
	})
	rt.pend.Windows = make([]window.Interval, len(rt.loop.Windows))
	for i := range rt.pend.Windows {
		rt.pend.Windows[i].Right = need
	}
	return rt, nil
}

// newPanes returns the pane aggregator for a plan that aggregates one
// windowed FROM position over a forward loop whose window either slides
// (both edges move with t) or is a landmark (left edge fixed), with no
// ORDER BY or LIMIT (evaluate applies those to the rows before
// aggregating); nil for every other plan, which keeps the rescan. Panes are
// gcd(extent, step) wide and start at the first instance's left edge, so
// every instance edge, and every edge a later instance moves to, is a pane
// edge.
func newPanes(plan *sql.Plan, wi int) *ops.PaneAgg {
	if len(plan.Entries) != 1 || wi < 0 || plan.Loop.Step <= 0 || plan.OrderCol >= 0 || plan.Limit >= 0 {
		return nil
	}
	w := plan.Loop.Windows[wi]
	landmark := w.Left.Coeff == 0 && w.Right.Coeff == 1
	if !landmark && (w.Left.Coeff != 1 || w.Right.Coeff != 1) {
		return nil
	}
	left := w.Left.At(plan.Loop.Init)
	extent := w.Right.At(plan.Loop.Init) - left + 1
	if extent <= 0 {
		return nil // the first instance is empty: the rescan says so
	}
	return ops.NewPaneAgg(plan.GroupBy, plan.Aggs, left, gcd(extent, plan.Loop.Step), landmark)
}

// gcd is the greatest common divisor of a > 0 and b > 0.
func gcd(a, b int64) int64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}

// setNext moves the forward loop to value t and caches its instance, or
// ends the loop where its condition no longer holds.
func (rt *windowRuntime) setNext(t int64) {
	rt.nextT = t
	if !rt.loop.Cond.Holds(t) {
		rt.end()
		return
	}
	rt.pend = rt.loop.At(t)
}

// end marks the loop finished and takes it off its streams at once, not
// when its DU retires: what they bring from here on belongs to no instance,
// so FeedMany should clone nothing more for it.
func (rt *windowRuntime) end() {
	rt.finished = true
	rt.q.engine.detach(rt.q)
	for _, c := range rt.q.inputs {
		n, _ := c.Q.Stats()
		rt.queuedAtEnd += n
	}
}

func (rt *windowRuntime) key(t *tuple.Tuple) int64 {
	if rt.q.Plan.TimeKind == window.Logical {
		return t.Seq
	}
	return t.TS
}

// intake is the drain sink. With one windowed position in a forward loop
// it decides firing at the arrival position: an instance closes at the
// first tuple beyond its right edge, so the batch is split there, the prefix
// is absorbed, the instance fires, and the rest continues against the next
// instance. Every tuple that arrived before the closing one is in — rows
// sharing the right edge's timestamp included — and a straggler behind it
// is late, whatever BatchSize, EOs or scheduling did: an instance's contents
// are a pure function of the arrival order, not of where a drain batch
// happened to end.
//
// A loop that has fired its last instance takes nothing more in: what
// arrives behind the closing tuple belongs to no instance.
//
// absorb keeps widened copies only, so every subscriber clone returns to the
// pool.
func (rt *windowRuntime) intake(pos int, ts []*tuple.Tuple) {
	all := ts
	for pos == rt.single && !rt.finished {
		right := rt.pend.Windows[rt.winFor[pos]].Right
		i := 0
		for i < len(ts) && rt.key(ts[i]) <= right {
			i++
		}
		if i == len(ts) {
			break
		}
		rt.absorb(pos, ts[:i])
		ts = ts[i:]
		rt.fireNext()
	}
	if !rt.finished {
		rt.absorb(pos, ts)
	}
	for _, t := range all {
		rt.pool.Put(t)
	}
}

// absorb takes tuples of one position (arriving, or preloaded history)
// into the runtime's state: the time high-water mark, the late count
// (late tuples stay buffered, or folded, for later overlapping instances),
// and — admitted here, once, however many instances will read it — the
// panes, the incremental join or the position's window buffer. A tuple its
// selections reject still moves time on; it is only not kept. ts itself is
// not retained.
func (rt *windowRuntime) absorb(pos int, ts []*tuple.Tuple) {
	rt.absorbed[pos].Add(int64(len(ts)))
	windowed, wide := rt.winFor[pos] >= 0, rt.wide[:0]
	var admitted, folded int64
	for _, t := range ts {
		k := rt.key(t)
		if k > rt.maxTime[pos] {
			rt.maxTime[pos] = k
		}
		if k <= rt.firedRight[pos] {
			rt.late.Add(1)
		}
		if rt.panes != nil {
			a, f := rt.fold(k, t)
			admitted += a
			folded += f
		} else if windowed {
			if w := rt.admit(pos, t); w != nil {
				wide = append(wide, w)
			}
		}
	}
	if rt.panes != nil {
		rt.admitted[pos].Add(admitted)
		rt.scanned.Add(folded)
		rt.held[pos].Store(rt.panes.Rows())
		return
	}
	rt.admitted[pos].Add(int64(len(wide)))
	rt.held[pos].Add(int64(len(wide)))
	if rt.incJoin != nil {
		for _, w := range wide {
			rt.incJoin.ingest(pos, w)
		}
	} else if windowed {
		rt.buffers[pos].AddBatch(wide)
	}
	clear(wide) // the scratch must not pin rows past their eviction
	rt.wide = wide[:0]
}

// reached reports whether the data seen so far has reached the pending
// instance's right edge on every open windowed position — with beyond, has
// moved past it (so: always, once the inputs have ended).
func (rt *windowRuntime) reached(beyond bool) bool {
	for pos, wi := range rt.winFor {
		if wi < 0 || rt.drainer.closed[pos] {
			continue
		}
		right := rt.pend.Windows[wi].Right
		if rt.maxTime[pos] < right || beyond && rt.maxTime[pos] == right {
			return false
		}
	}
	return true
}

func (rt *windowRuntime) allClosed() bool {
	for pos, wi := range rt.winFor {
		if wi >= 0 && !rt.drainer.closed[pos] {
			return false
		}
	}
	return true
}

// worthFiring decides, for an unbounded loop whose windowed inputs have all
// closed, whether the pending instance can still show data the previous one
// did not: some window must reach back to the data seen (left edge at or
// below the newest time), and either its left edge moves with t (a sliding
// window sheds old data until it is empty) or the last fired right edge had
// not reached the newest time (a landmark window is complete once it has).
// Past that every instance is empty or a repeat, so the loop ends there
// instead of spinning forever.
func (rt *windowRuntime) worthFiring() bool {
	for pos, wi := range rt.winFor {
		if wi < 0 || rt.pend.Windows[wi].Left > rt.maxTime[pos] {
			continue
		}
		if rt.loop.Windows[wi].Left.Coeff != 0 || rt.firedRight[pos] < rt.maxTime[pos] {
			return true
		}
	}
	return false
}

// quiet reports whether the data has reached the pending instance's right
// edge, not passed it, and the streams then brought nothing for windowQuiet.
// The last instance of a paused stream must not wait for a tuple that may
// never come; but a same-timestamp row or a straggler a scheduling gap
// behind the row that reached the edge must not find the instance closed.
func (rt *windowRuntime) quiet(progressed bool) bool {
	if progressed || !rt.reached(false) {
		rt.quietSince = time.Time{}
		return false
	}
	now := rt.q.engine.opts.Clock.Now()
	if rt.quietSince.IsZero() {
		rt.quietSince = now
	}
	return now.Sub(rt.quietSince) >= windowQuiet
}

// fireNext fires the pending instance and moves the loop on.
func (rt *windowRuntime) fireNext() {
	inst := rt.pend
	rt.fire(inst)
	for pos, wi := range rt.winFor {
		if wi >= 0 {
			rt.firedRight[pos] = inst.Windows[wi].Right
		}
	}
	rt.setNext(rt.nextT + rt.loop.Step)
	rt.evict()
}

// fireReady fires the forward loop's pending instances while the data has
// reached (beyond: passed) their right edges. A bounded loop whose inputs
// ended thus fires every remaining instance over what arrived; an unbounded
// one stops when no longer worthFiring.
func (rt *windowRuntime) fireReady(beyond bool) (fired bool) {
	for !rt.finished && rt.reached(beyond) {
		if rt.loop.Cond.Always && rt.allClosed() && !rt.worthFiring() {
			rt.end()
			break
		}
		rt.fireNext()
		fired = true
	}
	return fired
}

func (rt *windowRuntime) step() (bool, bool) {
	if rt.finished {
		return false, true
	}
	progressed, _ := rt.drainer.drain(rt.intake)

	if rt.loop.Step > 0 {
		// An instance closes once every windowed stream has moved beyond its
		// right edge (with one stream intake did that, at the arrival
		// position), or reached it and gone quiet, or ended.
		quiet := rt.quiet(progressed)
		if rt.fireReady(true) || quiet && rt.fireReady(false) {
			progressed = true
		}
		return progressed || rt.finished, rt.finished
	}

	// Snapshot or backward loop: fire every instance once the data reaches
	// the highest right edge (or the inputs end).
	if !rt.reached(false) {
		return progressed, false
	}
	rt.loop.Instances(maxLoopInstances, func(inst window.Instance) bool {
		rt.fire(inst)
		return true
	})
	rt.end()
	return true, true
}

// close is a no-op: the windowed runtime runs entirely on its stepping DU.
func (rt *windowRuntime) close() {}

// control reports false: instances are evaluated over buffered windows;
// there is no eddy to observe.
func (rt *windowRuntime) control(func(eddyHost)) bool { return false }

// stages reports the windowed pipeline in the one telemetry shape. A
// Window(<stream>) row per windowed position: visits = tuples absorbed,
// produced = those admitted (so selectivity is its selections'), tickets =
// rows held now (in live panes, on the pane path). The incremental join's
// materialized matches. Fire: visits = instances fired, produced = results
// emitted, tickets = rows scanned (on the pane path, rows folded: each row
// once), probe_ns = mean time per instance.
func (rt *windowRuntime) stages() []ModuleTelemetry {
	var rows []ModuleTelemetry
	var in int64
	for pos, wi := range rt.winFor {
		if wi >= 0 {
			n, adm := rt.absorbed[pos].Load(), rt.admitted[pos].Load()
			row := stageRow(rt.q.label, "Window("+rt.layout.Schemas[pos].Relation+")", n, adm)
			if n > 0 {
				row.Selectivity = float64(adm) / float64(n)
			}
			row.Tickets = rt.held[pos].Load()
			rows = append(rows, row)
			in += adm
		}
	}
	if rt.incJoin != nil {
		rows = append(rows, stageRow(rt.q.label, "IncJoin", in, rt.incJoin.produced.Load()))
	}
	fire := stageRow(rt.q.label, "Fire", rt.fireLat.Count(), rt.q.Results())
	fire.Tickets = rt.scanned.Load()
	fire.ProbeNanos = rt.fireLat.Mean().Nanoseconds()
	return append(rows, fire)
}

// stageRow is one pipeline stage of a runtime without an eddy, in
// ModuleTelemetry shape: what entered the stage and what it generated. A
// stage has no routing choice to learn, so selectivity reads 1.
func stageRow(owner, name string, visits, produced int64) ModuleTelemetry {
	return ModuleTelemetry{Owner: owner, Module: name, Visits: visits, Produced: produced, Selectivity: 1}
}

// evict drops buffered rows no future window instance can need.
func (rt *windowRuntime) evict() {
	if rt.finished {
		return
	}
	inst := rt.pend
	if rt.incJoin != nil {
		rt.incJoin.evict(inst)
		return
	}
	if rt.panes != nil {
		wi := rt.winFor[0]
		below := inst.Windows[wi].Left
		if rt.loop.Windows[wi].Left.Coeff == 0 {
			// Every later landmark instance covers the fired panes whole.
			below = rt.firedRight[0] + 1
		}
		rt.panes.Evict(below)
		rt.held[0].Store(rt.panes.Rows())
		return
	}
	for pos, wi := range rt.winFor {
		if wi >= 0 {
			rt.evictBelow(pos, inst.Windows[wi].Left)
		}
	}
}

// evictBelow evicts position pos's buffer and keeps its held count.
func (rt *windowRuntime) evictBelow(pos int, watermark int64) {
	rt.held[pos].Add(-int64(rt.buffers[pos].Evict(watermark)))
}

// selected applies FROM position pos's selections to one of its wide rows.
func (rt *windowRuntime) selected(pos int, w *tuple.Tuple) bool {
	for _, p := range rt.selsFor[pos] {
		if !p.Eval(w) {
			return false
		}
	}
	return true
}

// admit widens one tuple of FROM position pos, returning nil when one of
// the position's selections fails.
func (rt *windowRuntime) admit(pos int, t *tuple.Tuple) *tuple.Tuple {
	if w := rt.layout.Widen(pos, t); rt.selected(pos, w) {
		return w
	}
	return nil
}

// fold is admit on the pane path: it checks the position's selections on
// the tuple's wide row and folds the row into its pane, keeping nothing,
// because panes hold partial aggregates, not rows. With one FROM position
// a tuple of the stream's arity already is its wide row and is read in
// place; any other is widened into a pooled row that goes straight back.
// It returns whether the row was admitted and whether it was folded (a row
// below every live pane belongs to no instance still to come).
func (rt *windowRuntime) fold(k int64, t *tuple.Tuple) (admitted, folded int64) {
	w := t
	if len(t.Vals) != rt.layout.Width() {
		w = rt.layout.WidenUsing(rt.pool, 0, t)
	}
	if rt.selected(0, w) {
		admitted = 1
		if rt.panes.Fold(k, w) {
			folded = 1
		}
	}
	if w != t {
		rt.pool.Put(w)
	}
	return admitted, folded
}

// rowsFor returns FROM position pos's rows for one instance: the admitted
// rows of its window, aliasing the buffer, or a static table's contents,
// which may change between fires and so are widened and filtered here.
// Storage errors surface as an empty instance; the engine keeps running
// (fault containment per query).
func (rt *windowRuntime) rowsFor(pos int, inst window.Instance) []*tuple.Tuple {
	if wi := rt.winFor[pos]; wi >= 0 {
		iv := inst.Windows[wi]
		return rt.buffers[pos].Range(iv.Left, iv.Right)
	}
	raw, _ := rt.q.engine.tableContents(rt.q.Plan.Entries[pos])
	out := make([]*tuple.Tuple, 0, len(raw))
	for _, t := range raw {
		if w := rt.layout.Widen(pos, t); rt.selected(pos, w) {
			out = append(out, w)
		}
	}
	return out
}

// fire evaluates one window instance and delivers its result set as one
// batch: each egress takes the instance under one lock acquisition, so a
// concurrent Fetch sees all of it or none. Result tuples carry the instance's
// loop value in TS so clients can regroup the output sequence of sets. On
// the pane path, an instance nobody kept leaves its rows for the next
// instance to be written over.
func (rt *windowRuntime) fire(inst window.Instance) {
	clk := rt.q.engine.opts.Clock
	start := clk.Now()
	var out []*tuple.Tuple
	if rt.panes != nil {
		iv := inst.Windows[rt.winFor[0]]
		out = rt.panes.Combine(iv.Left, iv.Right)
	} else {
		out = rt.evaluate(inst)
	}
	for _, r := range out {
		r.TS = inst.T
	}
	if !rt.q.emitBatch(out) && rt.panes != nil {
		rt.panes.Reuse()
	}
	rt.fireLat.Record(clk.Since(start))
}

// evaluate computes one instance's result rows, all fresh: none is a row a
// buffer holds.
func (rt *windowRuntime) evaluate(inst window.Instance) []*tuple.Tuple {
	var rows []*tuple.Tuple
	if rt.incJoin != nil {
		rows = rt.incJoin.rowsAt(inst)
	} else {
		perPos := make([][]*tuple.Tuple, len(rt.q.Plan.Entries))
		var scanned int64
		for pos := range perPos {
			perPos[pos] = rt.rowsFor(pos, inst)
			scanned += int64(len(perPos[pos]))
		}
		rt.scanned.Add(scanned)
		if len(perPos) == 1 {
			rows = perPos[0]
		} else {
			rt.joinRec(perPos, 0, nil, &rows)
		}
	}

	// ORDER BY / LIMIT shape the instance's result set (top-k per
	// window), evaluated before projection so any wide column can sort —
	// on a copy: rows may alias a buffer, whose order is its index.
	if rt.q.Plan.OrderCol >= 0 {
		rows = append([]*tuple.Tuple(nil), rows...)
		ops.SortTuples(rows, rt.q.Plan.OrderCol, !rt.q.Plan.OrderDesc)
	}
	if lim := rt.q.Plan.Limit; lim >= 0 && int64(len(rows)) > lim {
		rows = rows[:lim]
	}

	if rt.agg != nil {
		return rt.agg.Compute(rows)
	}
	// DISTINCT has set semantics per window instance (§4.1: each
	// instance's output is a set), so the seen-set resets here.
	var dedup *ops.DupElim
	if rt.q.Plan.Distinct {
		dedup = ops.NewDupElim()
	}
	// One position's rows, and materialized matches, are a buffer's own and
	// stay there for the overlapping instances still to come; joined rows
	// are fresh.
	buffered := rt.incJoin != nil || len(rt.q.Plan.Entries) == 1
	out := make([]*tuple.Tuple, 0, len(rows))
	for _, r := range rows {
		switch {
		case rt.proj != nil:
			r = rt.proj.Apply(r)
		case buffered:
			// Stamping the buffer's row would rewrite the TS of the row an
			// earlier instance delivered and, under physical time, the
			// buffer's sort key.
			r = r.Clone()
		}
		if dedup == nil || dedup.Accept(r) {
			out = append(out, r)
		}
	}
	return out
}

// joinRec nested-loop joins the per-position row sets, applying every join
// edge as soon as both of its streams are bound.
func (rt *windowRuntime) joinRec(perPos [][]*tuple.Tuple, pos int, acc *tuple.Tuple, out *[]*tuple.Tuple) {
	if pos == len(perPos) {
		if acc != nil {
			*out = append(*out, acc)
		}
		return
	}
	for _, r := range perPos[pos] {
		merged := r
		if acc != nil {
			merged = rt.layout.Merge(acc, r)
		}
		if !rt.joinEdgesHold(merged, pos) {
			continue
		}
		rt.joinRec(perPos, pos+1, merged, out)
	}
}

// joinEdgesHold verifies every join edge whose two streams are bound once
// position pos has just been added.
func (rt *windowRuntime) joinEdgesHold(row *tuple.Tuple, pos int) bool {
	for _, j := range rt.q.Plan.Joins {
		if j.StreamA > pos || j.StreamB > pos {
			continue // not yet bound
		}
		if j.StreamA != pos && j.StreamB != pos {
			continue // checked earlier in the recursion
		}
		if !j.Op.Apply(tuple.Compare(row.Vals[j.ColA], row.Vals[j.ColB])) {
			return false
		}
	}
	return true
}

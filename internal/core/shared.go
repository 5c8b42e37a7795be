package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

// eddyHost is the one contract behind which every eddy in the engine is
// observed (internal/eddy/host.go). *eddy.Eddy and *eddy.ParallelEddy
// satisfy it, so a class's cacq engine, at one worker or many, is observed
// the same way.
type eddyHost interface {
	Stats() eddy.Stats
	ModuleNames() []string
	ModuleProbeNanos() []int64
	PolicyInfo() (name string, order []int)
}

// sharedClass implements the paper's shared processing (§1.1, §3.1) inside
// the SQL engine: every unwindowed query is a member of a CACQ class, and a
// lone query is the one-member case. Members with one class key share one
// grouped-filter pass per tuple and one SteM build per FROM position —
// stored in arrangements the class's engine owns — while each
// runs its own projection, aggregate and DISTINCT on what it is delivered.
// Queries enter and leave the running class dynamically, and the last one
// out tears it down.
type sharedClass struct {
	// key identifies the class (classSpec): "S" for selections on S,
	// "S+R|0=2" for the equijoin of S's column 0 with R's column 2.
	key     string
	streams []string      // one per FROM position
	conns   []*fjord.Conn // one input queue per FROM position
	subIDs  []int

	// mu guards the cacq engine and membership: the class DU steps the
	// engine on its EO thread while Register/Deregister mutate it from
	// client goroutines.
	mu  sync.Mutex
	eng sharedEngine
	// host is eng's eddy control plane: its one eddy, or its pipeline
	// (then parStats reads the pipeline's own counters).
	host     eddyHost
	parStats func() eddy.ParallelStats
	members  map[int]int // RunningQuery.ID -> cacq query id
	// drainer moves the input queues into eng. preSeq, which it aliases,
	// holds per FROM position the last static-table row replayed at
	// registration, so a copy of it still queued is dropped.
	drainer *batchDrain
	preSeq  []int64
	// ingest routes one batch of stream-s subscriber clones through eng and
	// takes ownership of them: the engine, or the pipeline shard the batch
	// goes to, adopts or recycles each itself (IngestOwned).
	ingest func(s int, base []*tuple.Tuple)
	// dead marks a retired class (retireLocked): it is out of e.shared, add
	// refuses members, and step retires its DU.
	dead bool
	// rec records the registry series the class registered, for retirement
	// to drop by exact name; named counts the modules with per-module series.
	// unregPar drops a parallel engine's pipeline series.
	rec      recorder
	named    int
	unregPar func()
}

// errClassGone is add's answer when the class retired between lookup and
// join; joinClass then finds or creates a live one.
var errClassGone = errors.New("core: shared class retired")

// sharedEngine abstracts the execution strategy behind a shared class:
// the sequential cacq.Engine, or — when the engine runs with Workers > 1 and
// the class has one FROM position — a cacq.Parallel running the same
// super-query as a batch pipeline over worker shards, which delivers in the
// sequential engine's order. A class that joins runs sequentially at any
// Workers.
type sharedEngine interface {
	AddMember(fp tuple.SourceSet, sels []expr.Predicate, project []int, emit func(*tuple.Tuple) (kept bool)) (*cacq.Query, error)
	RemoveQuery(id int) error
	IngestBatch(s int, base []*tuple.Tuple)
	Delivered() int64
}

// sharedMember is the runtime of a query inside a shared class: the class's
// DU steps the engine, so a member has nothing to step or stop, and its
// control plane is the class's — every member observes the one super-query
// eddy.
type sharedMember struct{ sc *sharedClass }

func (sharedMember) step() (bool, bool)        { return false, false }
func (sharedMember) close()                    {}
func (sharedMember) stages() []ModuleTelemetry { return nil }

func (m sharedMember) control(fn func(h eddyHost)) bool {
	m.sc.mu.Lock()
	defer m.sc.mu.Unlock()
	fn(m.sc.host)
	return true
}

// classSpec derives a plan's class key and the class's join edges. The key
// names each FROM position's stream, with its alias where that differs
// ("sA a"), joined by "+", then the join edges as wide-row columns and op
// ("|1=4,5<7"). A plan reading a static table adds its query ID ("#q3"), so
// the table replays once per registration. Plans with one key are
// layout-compatible (same positions, schemas and edges), which is what makes
// delivering one engine's wide rows to every member sound.
func classSpec(plan *sql.Plan, qid int) (key string, joins []cacq.JoinSpec) {
	var b strings.Builder
	table := false
	for pos, entry := range plan.Entries {
		if pos > 0 {
			b.WriteByte('+')
		}
		b.WriteString(entry.Name)
		if alias := plan.Layout.Schemas[pos].Relation; alias != entry.Name {
			b.WriteString(" " + alias)
		}
		table = table || entry.Kind == catalog.Table
	}
	for i, j := range plan.Joins {
		b.WriteByte("|,"[min(i, 1)])
		fmt.Fprintf(&b, "%d%s%d", j.ColA, j.Op, j.ColB)
		joins = append(joins, cacq.JoinSpec{
			StreamA: j.StreamA, StreamB: j.StreamB,
			ColA: j.ColA, ColB: j.ColB, Op: j.Op,
			TimeKind: plan.TimeKind,
		})
	}
	if table {
		fmt.Fprintf(&b, "#q%d", qid)
	}
	return b.String(), joins
}

// joinClass adds q to its plan's shared class, creating the class when no
// live one exists. A class whose last member left between the lookup and
// the join has retired; the retry finds or creates a live one. The creator
// replays the class's static tables and then schedules its DU, so nothing
// steps the class before its first member is in.
func (e *Engine) joinClass(q *RunningQuery, plan *sql.Plan) (*sharedClass, error) {
	for {
		sc, created, err := e.sharedClassFor(q.ID, plan)
		if err != nil {
			return nil, err
		}
		err = sc.add(q, plan)
		if errors.Is(err, errClassGone) {
			continue
		}
		if err == nil && created {
			err = e.replayTables(sc, plan)
		}
		if created {
			e.schedule(sc.streams, &executor.FuncDU{DUName: "shared:" + sc.key, Fn: sc.step}, sc.conns)
		}
		if err != nil {
			// A class created for q alone retires with it.
			e.leaveClass(sc, q.ID)
			return nil, err
		}
		return sc, nil
	}
}

// sharedClassFor returns the plan's live shared class, creating it when
// there is none. Lookup, creation and publication run under one hold of
// e.mu, as retirement does, so a key has at most one live class, and a
// retired one's series are gone before its successor registers the same
// names.
func (e *Engine) sharedClassFor(qid int, plan *sql.Plan) (sc *sharedClass, created bool, err error) {
	key, joins := classSpec(plan, qid)
	e.mu.Lock()
	defer e.mu.Unlock()
	if sc, ok := e.shared[key]; ok {
		return sc, false, nil
	}
	sts := make([]*streamState, len(plan.Entries))
	streams := make([]string, len(plan.Entries))
	for i, entry := range plan.Entries {
		if sts[i], err = e.streamLocked(entry.Name); err != nil {
			return nil, false, err
		}
		streams[i] = entry.Name
	}
	sc = &sharedClass{
		key:     key,
		streams: streams,
		members: make(map[int]int),
		preSeq:  make([]int64, len(streams)),
		rec:     recorder{reg: e.reg, names: new([]string)},
	}
	for range streams {
		sc.conns = append(sc.conns, fjord.NewConn(fjord.Push, e.opts.QueueCap))
	}
	sc.drainer = newBatchDrain(sc.conns, sc.preSeq, e.recycler, e.opts.BatchSize, 256)
	// Class-key-derived seed: every engine resolving the same class seeds
	// identically, while distinct classes adapt independently. The plan's
	// shape picks the policy, and whether each eddy plans whole probe orders.
	seed, label := classSeed(key), "shared:"+key
	pol, reuse := route(plan, seed)
	if len(streams) == 1 && e.opts.Workers > 1 {
		par, err := cacq.NewParallelEngine(plan.Layout, cacq.ParallelOptions{
			Workers: e.opts.Workers,
			Policy: func(shard int) eddy.Policy {
				p, _ := route(plan, seed+int64(shard)+2)
				return p
			},
		})
		if err != nil {
			return nil, false, err
		}
		par.SetRecycler(e.recycler)
		par.Host().Barrier(func(shards []eddy.Shard) {
			for _, s := range shards {
				s.Eddy().SetClock(e.opts.Clock)
			}
		})
		sc.eng, sc.host, sc.parStats = par, par.Host(), par.Host().ParStats
		sc.unregPar = par.Host().RegisterMetrics(e.reg, label)
		sc.ingest = par.IngestOwned
	} else {
		seq, err := cacq.New(plan.Layout, joins, pol)
		if err != nil {
			return nil, false, err
		}
		seq.SetRecycler(e.recycler)
		seq.Host().SetClock(e.opts.Clock)
		if reuse > 0 {
			e.planOrders(seq.Host(), reuse, label)
		}
		sc.eng, sc.host, sc.ingest = seq, seq.Host(), seq.IngestOwned
		if e.tracer != nil {
			// Tracing follows individual tuples through one eddy's hops; only
			// the sequential engine offers it (shards would interleave hops).
			seq.SetTracer(e.tracer, label)
		}
	}
	e.shared[key] = sc
	for i, st := range sts {
		sc.subIDs = append(sc.subIDs, e.nextSub)
		st.mu.Lock()
		st.subs[e.nextSub] = sc.conns[i]
		st.mu.Unlock()
		e.nextSub++
	}
	sc.registerMetrics()
	return sc, true, nil
}

// planOrders turns on N-way probe-order planning on one class eddy (every
// member's footprint is the class's whole layout, so doomed intermediates
// may be pruned) and, with introspection on, publishes its fresh plans
// under owner.
func (e *Engine) planOrders(ed *eddy.Eddy, reuse int, owner string) {
	ed.SetNWay(reuse)
	if sink := e.orderSink(owner, ed.ModuleNames); sink != nil {
		ed.SetOrderSink(sink)
	}
}

// replayTables feeds the static tables in a new class's FROM list to it:
// their rows arrived before the query registered, and streams, by CQ
// semantics, are consumed from registration onward. Only a class keyed by
// its one query has tables, so each registration replays its own. A row
// that landed between the class's subscription and this snapshot is queued
// too; preSeq drops that copy.
func (e *Engine) replayTables(sc *sharedClass, plan *sql.Plan) error {
	for pos, entry := range plan.Entries {
		if entry.Kind != catalog.Table {
			continue
		}
		rows, err := e.tableContents(entry)
		if err != nil {
			return err
		}
		sc.mu.Lock()
		for _, t := range rows {
			sc.preSeq[pos] = max(sc.preSeq[pos], t.Seq)
		}
		sc.eng.IngestBatch(pos, rows)
		sc.mu.Unlock()
	}
	return nil
}

// registerMetrics exports the class's series under stream="<class key>":
// membership and delivery, the eddy aggregates, per-SteM counters and, for
// a sequential engine, per-module routing state — all read under the lock
// that excludes the stepping DU. A pipeline host snapshots under a barrier,
// so it stays at the aggregates (plus its own pipeline series).
func (sc *sharedClass) registerMetrics() {
	owner := fmt.Sprintf(`stream=%q`, sc.key)
	lbl := "{" + owner + "}"
	sc.rec.RegisterFunc("tcq_cacq_members"+lbl, metrics.KindGauge,
		sc.locked(func() float64 { return float64(len(sc.members)) }))
	sc.rec.RegisterFunc("tcq_cacq_delivered_total"+lbl, metrics.KindCounter,
		sc.locked(func() float64 { return float64(sc.eng.Delivered()) }))
	// Tuples whose lineage bitmap died entirely (every member's grouped
	// filter rejected them) count as eddy drops in the shared super-query.
	sc.rec.RegisterFunc("tcq_cacq_lineage_dropped_total"+lbl, metrics.KindCounter,
		sc.locked(func() float64 { return float64(sc.host.Stats().Dropped) }))
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
		sc.rec.RegisterFunc(name+lbl, metrics.KindCounter,
			sc.locked(func() float64 { return float64(get(sc.host.Stats())) }))
	}
	seq, ok := sc.eng.(*cacq.Engine)
	if !ok {
		return
	}
	for _, sm := range seq.SteMs() {
		st := sm.SteM()
		slbl := fmt.Sprintf(`{%s,stem=%q}`, owner, st.Name())
		for name, get := range map[string]func(st stem.Stats) int64{
			"tcq_stem_builds_total":  func(st stem.Stats) int64 { return st.Builds },
			"tcq_stem_probes_total":  func(st stem.Stats) int64 { return st.Probes },
			"tcq_stem_matches_total": func(st stem.Stats) int64 { return st.Matches },
			"tcq_stem_evicted_total": func(st stem.Stats) int64 { return st.Evicted },
		} {
			get := get
			sc.rec.RegisterFunc(name+slbl, metrics.KindCounter,
				sc.locked(func() float64 { return float64(get(st.Stats())) }))
		}
		sc.rec.RegisterFunc("tcq_stem_size"+slbl, metrics.KindGauge,
			sc.locked(func() float64 { return float64(st.Stats().Size) }))
	}
	sc.registerModules()
}

// locked wraps a scrape-time read in the lock that excludes the stepping DU.
func (sc *sharedClass) locked(get func() float64) func() float64 {
	return func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return get()
	}
}

// registerModules (sc.mu held, or before the class is published) exports
// per-module routing series for the sequential engine's modules added since
// the last call: its SteMs at creation, a grouped filter the first time a
// member selects on its column.
func (sc *sharedClass) registerModules() {
	seq, ok := sc.eng.(*cacq.Engine)
	if !ok {
		return
	}
	names := seq.Host().ModuleNames()
	stat := func(get func(eddy.Stats) float64) func() float64 {
		return sc.locked(func() float64 { return get(sc.host.Stats()) })
	}
	for i := sc.named; i < len(names); i++ {
		i := i
		mlbl := fmt.Sprintf(`{stream=%q,module=%q}`, sc.key, names[i])
		sc.rec.RegisterFunc("tcq_eddy_module_visits_total"+mlbl, metrics.KindCounter,
			stat(func(s eddy.Stats) float64 { return float64(s.Modules[i].Visits) }))
		sc.rec.RegisterFunc("tcq_eddy_module_produced_total"+mlbl, metrics.KindCounter,
			stat(func(s eddy.Stats) float64 { return float64(s.Modules[i].Produced) }))
		sc.rec.RegisterFunc("tcq_eddy_module_selectivity"+mlbl, metrics.KindGauge,
			stat(func(s eddy.Stats) float64 { return s.Modules[i].Selectivity() }))
		sc.rec.RegisterFunc("tcq_eddy_module_tickets"+mlbl, metrics.KindGauge,
			stat(func(s eddy.Stats) float64 {
				if i < len(s.Tickets) {
					return float64(s.Tickets[i])
				}
				return 0
			}))
	}
	sc.named = len(names)
}

// step drains pending stream tuples through the shared engine in batches:
// one lineage-template lookup and one eddy entry per batch instead of per
// tuple; a parallel engine hands each drained batch whole to a shard. The
// subscriber clones are the class's own, so it hands them to the engine:
// a selection class's clone is routed as the wide row itself, lineage in a
// reused bitmap, and goes back to the pool when no member kept it. A
// retired class's DU retires.
func (sc *sharedClass) step() (progressed, done bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false, true
	}
	progressed, _ = sc.drainer.drain(sc.ingest)
	return progressed, false
}

// add registers a query with the class, delivering into q's egress through
// q's own post-eddy pipeline. A retired class answers errClassGone; a
// member whose selections would take the class past 64 modules is refused,
// and the class keeps serving the others.
func (sc *sharedClass) add(q *RunningQuery, plan *sql.Plan) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return errClassGone
	}
	project, emit := memberOutput(q, plan)
	cq, err := sc.eng.AddMember(plan.Footprint, plan.Selections, project, emit)
	if err != nil {
		return err
	}
	sc.members[q.ID] = cq.ID
	sc.registerModules()
	return nil
}

// remove drops a query from a live class and reports whether none is left.
func (sc *sharedClass) remove(queryID int) (empty bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false
	}
	if cqID, ok := sc.members[queryID]; ok {
		sc.eng.RemoveQuery(cqID)
		delete(sc.members, queryID)
	}
	return len(sc.members) == 0
}

// leaveClass drops a query from its class; the last member out retires the
// class, unless a Register joined it after the removal.
func (e *Engine) leaveClass(sc *sharedClass, queryID int) {
	if !sc.remove(queryID) {
		return
	}
	e.mu.Lock()
	retired := e.retireLocked(sc, true)
	e.mu.Unlock()
	if retired {
		sc.close()
	}
}

// retireLocked (e.mu held) takes sc out of the engine, once: marked dead
// and out of e.shared, which takes its arrangements out of the gauges and
// tcq.arrange, off its streams, and its series out of the metrics. With
// ifEmpty it leaves a class that has members alone. It reports whether it
// retired sc; the caller then closes it outside e.mu.
func (e *Engine) retireLocked(sc *sharedClass, ifEmpty bool) bool {
	sc.mu.Lock()
	retire := !sc.dead && (!ifEmpty || len(sc.members) == 0)
	if retire {
		sc.dead = true
	}
	sc.mu.Unlock()
	if !retire {
		return false
	}
	delete(e.shared, sc.key)
	for i, name := range sc.streams {
		if st, ok := e.streams[name]; ok {
			st.mu.Lock()
			delete(st.subs, sc.subIDs[i])
			st.mu.Unlock()
		}
	}
	sc.rec.unregister()
	if sc.unregPar != nil {
		sc.unregPar()
	}
	return true
}

// close stops what a retired class runs: its input queues close, which
// rouses its EO so the DU retires, and a parallel engine's workers and
// merge stage stop (the sequential engine has no goroutines).
func (sc *sharedClass) close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, c := range sc.conns {
		c.Close()
	}
	if par, ok := sc.eng.(*cacq.Parallel); ok {
		par.Close()
	}
}

// eachArrangement calls fn with every arrangement of every live class (a
// sequential engine's: a parallel one holds no SteM), under the class's
// lock, so fn may read the class and take a's stats: the declared order
// Engine.mu → sharedClass.mu → Arrangement.mu. e.mu is held only to
// list the classes, not while a class's lock is awaited, so a walk never
// holds Feed or Register up behind a class's step; a class that retired
// since the listing is skipped.
func (e *Engine) eachArrangement(fn func(sc *sharedClass, a *arrange.Arrangement)) {
	e.mu.Lock()
	classes := make([]*sharedClass, 0, len(e.shared))
	for _, sc := range e.shared {
		classes = append(classes, sc)
	}
	e.mu.Unlock()
	for _, sc := range classes {
		sc.mu.Lock()
		if seq, ok := sc.eng.(*cacq.Engine); ok && !sc.dead {
			seq.Arrangements(func(a *arrange.Arrangement) { fn(sc, a) })
		}
		sc.mu.Unlock()
	}
}

// arrangementTotals are the tcq_arrangement_* values: every live class's
// arrangements counted, their readers (each arrangement is read by every
// member of its class) and their bytes summed.
type arrangementTotals struct {
	count, readers        int
	bytes, reclaimedBytes int64
}

func (e *Engine) arrangementTotals() (t arrangementTotals) {
	e.eachArrangement(func(sc *sharedClass, a *arrange.Arrangement) {
		st := a.Stats()
		t.count++
		t.readers += len(sc.members)
		t.bytes += st.Bytes
		t.reclaimedBytes += st.ReclaimedBytes
	})
	return t
}

// SharedQueryCount reports how many standing queries share a class, by
// class key (classSpec): "S" for a selection class, "S+R|0=2" for a join.
func (e *Engine) SharedQueryCount(key string) int {
	e.mu.Lock()
	sc, ok := e.shared[key]
	e.mu.Unlock()
	if !ok {
		return 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.members)
}

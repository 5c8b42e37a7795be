package core

import (
	"errors"
	"fmt"
	"sync"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// sharedClass implements the paper's shared processing (§1.1, §3.1) inside
// the SQL engine: qualifying queries join a CACQ engine instead of getting
// a private eddy. Selection classes (one per stream) share one grouped-
// filter pass per tuple among all members; equijoin classes (one per
// stream-pair + join-column key) additionally share one SteM build — stored
// in the engine registry's multi-reader arrangements — among every
// overlapping join query, the first of them included. Queries enter and
// leave the running class dynamically, and the last one out tears it down.
type sharedClass struct {
	// key identifies the class: the stream name for selection classes
	// (unchanged from before join sharing existed), or
	// "A+B|colA=colB" for shared-join classes.
	key     string
	streams []string // one per FROM position
	layout  *tuple.Layout
	conns   []*fjord.Conn // one input queue per FROM position
	subIDs  []int

	// mu guards the cacq engine and membership: the class DU steps the
	// engine on its EO thread while Register/Deregister mutate it from
	// client goroutines.
	mu  sync.Mutex
	eng sharedEngine
	// host is eng's eddy control plane: its one eddy, or its shard layer
	// (then parStats reads that layer's own counters).
	host     eddyHost
	parStats func() eddy.ParallelStats
	members  map[int]int // RunningQuery.ID -> cacq query id
	batch    int
	buf      []*tuple.Tuple
	// ingest routes one batch of stream-s subscriber clones through eng and
	// takes ownership of them: the sequential engine adopts or recycles each
	// itself (cacq.Engine.IngestOwned); a parallel one widens copies, after
	// which the clones go back to the engine's tuple pool.
	ingest func(s int, base []*tuple.Tuple)
	// dead marks a retired class (retireLocked): it is out of e.shared, add
	// refuses members, and step retires its DU.
	dead bool
	// series lists the registry series the class registered, for retirement
	// to drop by exact name.
	series []string
}

// errClassGone is add's answer when the class retired between lookup and
// join; joinClass then finds or creates a live one.
var errClassGone = errors.New("core: shared class retired")

// sharedEngine abstracts the execution strategy behind a shared class:
// the sequential cacq.Engine, or — when the engine runs with Workers > 1 —
// a cacq.Parallel partitioning the same super-query across worker shards.
// A selection class is single-stream, so Seq is monotone and the parallel
// variant runs its ordered merge: members observe the exact sequential
// delivery order either way. Join classes span streams with independent
// sequences, so their parallel variant merges unordered (join results are
// a multiset).
type sharedEngine interface {
	AddQuery(fp tuple.SourceSet, sels []expr.Predicate, project []int, out func(*tuple.Tuple)) (*cacq.Query, error)
	RemoveQuery(id int) error
	Delivered() int64
	AdvanceEpoch()
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

// qualifiesShared reports whether a plan can join a shared selection class.
func qualifiesShared(plan *sql.Plan) bool {
	return len(plan.Entries) == 1 &&
		plan.Entries[0].Kind == catalog.Stream &&
		plan.Loop == nil &&
		!plan.HasAgg() &&
		len(plan.Joins) == 0 &&
		!plan.Distinct &&
		plan.OrderCol < 0 &&
		plan.Limit < 0
}

// qualifiesSharedJoin reports whether a plan can join a shared-arrangement
// join class: an unwindowed two-stream single-equijoin select (no
// aggregates/ordering/limit/distinct, no self-join — one stream feeding two
// FROM positions would need per-position lineage the class key can't
// express).
func qualifiesSharedJoin(plan *sql.Plan) bool {
	if len(plan.Entries) != 2 ||
		plan.Entries[0].Kind != catalog.Stream ||
		plan.Entries[1].Kind != catalog.Stream ||
		plan.Entries[0].Name == plan.Entries[1].Name ||
		plan.Loop != nil || plan.HasAgg() || len(plan.GroupBy) > 0 ||
		plan.Distinct || plan.OrderCol >= 0 || plan.Limit >= 0 ||
		len(plan.Joins) != 1 {
		return false
	}
	return plan.Joins[0].Op == expr.Eq
}

// sharedClassSpec derives a plan's class identity: the key, the stream per
// FROM position, and the shared join edges. Plans with the same key are
// layout-compatible (same FROM order, schemas, and join columns), which is
// what makes delivering one engine's wide rows to every member sound.
func sharedClassSpec(plan *sql.Plan) (key string, streams []string, joins []cacq.JoinSpec) {
	for _, entry := range plan.Entries {
		streams = append(streams, entry.Name)
	}
	if len(plan.Joins) == 0 {
		return streams[0], streams, nil
	}
	j := plan.Joins[0]
	key = fmt.Sprintf("%s+%s|%d=%d", streams[0], streams[1], j.ColA, j.ColB)
	joins = []cacq.JoinSpec{{
		StreamA: j.StreamA, StreamB: j.StreamB,
		ColA: j.ColA, ColB: j.ColB,
		TimeKind: plan.TimeKind,
	}}
	return key, streams, joins
}

// arrangedProvider returns the shard-scoped arrangement factory for a
// class: arrangements live in the engine registry keyed on
// (class, stream, shard), so metrics and introspection can enumerate them
// and re-asking for the same key returns the same backing state.
func (e *Engine) arrangedProvider(key string, shard int) func(stream string, keyCol int, kind window.TimeKind) *arrange.Arrangement {
	return func(stream string, keyCol int, kind window.TimeKind) *arrange.Arrangement {
		return e.arrReg.GetOrCreate(
			arrange.Key{Class: key, Stream: stream, Shard: shard},
			arrange.Options{
				Name:     stream,
				KeyCol:   keyCol,
				Windowed: true,
				TimeKind: kind,
				Recycler: e.recycler,
			})
	}
}

// joinClass adds q to its plan's shared class, creating the class when no
// live one exists. A class whose last member left between the lookup and
// the join has retired; the retry finds or creates a live one.
func (e *Engine) joinClass(q *RunningQuery, plan *sql.Plan) (*sharedClass, error) {
	for {
		sc, err := e.sharedClassFor(plan)
		if err != nil {
			return nil, err
		}
		err = sc.add(q, plan)
		if errors.Is(err, errClassGone) {
			continue
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
// retired one's arrangements and series are gone before its successor
// registers the same names.
func (e *Engine) sharedClassFor(plan *sql.Plan) (*sharedClass, error) {
	key, streams, joins := sharedClassSpec(plan)
	e.mu.Lock()
	defer e.mu.Unlock()
	if sc, ok := e.shared[key]; ok {
		return sc, nil
	}
	sts := make([]*streamState, len(streams))
	for i, name := range streams {
		st, err := e.streamLocked(name)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	sc := &sharedClass{
		key:     key,
		streams: streams,
		layout:  plan.Layout,
		members: make(map[int]int),
		batch:   256,
		buf:     make([]*tuple.Tuple, e.opts.BatchSize),
	}
	for range streams {
		sc.conns = append(sc.conns, fjord.NewConn(fjord.Push, e.opts.QueueCap))
	}
	// Class-key-derived seed: every engine resolving the same class seeds
	// identically, while distinct classes adapt independently. A class spans
	// at most two streams, so route hands it the per-hop lottery and no
	// probe-order plan to reuse.
	seed := classSeed(key)
	if e.opts.Workers > 1 {
		popt := cacq.ParallelOptions{
			Workers:   e.opts.Workers,
			BatchSize: e.opts.BatchSize,
			// Single stream: Seq is monotone, merge ordered. Join classes
			// span independently-sequenced streams; their results are a
			// multiset, merged unordered.
			Ordered: len(joins) == 0,
			Policy: func(shard int) eddy.Policy {
				p, _ := route(plan, seed+int64(shard)+2)
				return p
			},
			Arranged: func(shard int) cacq.ArrangedConfig {
				return cacq.ArrangedConfig{Provider: e.arrangedProvider(key, shard)}
			},
		}
		par, err := cacq.NewParallelEngine(plan.Layout, joins, popt)
		if err != nil {
			return nil, err
		}
		sc.eng, sc.host, sc.parStats = par, par.Host(), par.Host().ParStats
		sc.ingest = func(s int, base []*tuple.Tuple) {
			par.IngestBatch(s, base)
			for _, t := range base {
				e.recycler.Put(t)
			}
		}
	} else {
		pol, _ := route(plan, seed)
		seq, err := cacq.NewArranged(plan.Layout, joins, pol, cacq.ArrangedConfig{
			Provider: e.arrangedProvider(key, -1),
			// The sequential step is fully synchronous, so freed lineage
			// slots can be scrubbed and reused — bitmaps stay dense under
			// query churn.
			ReuseSlots: true,
		})
		if err != nil {
			return nil, err
		}
		seq.SetRecycler(e.recycler)
		sc.eng, sc.host, sc.ingest = seq, seq.Host(), seq.IngestOwned
		if e.tracer != nil {
			// Tracing follows individual tuples through one eddy's hops; only
			// the sequential engine offers it (shards would interleave hops).
			seq.SetTracer(e.tracer, "shared:"+key)
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
	if e.opts.Introspect {
		sc.host.SetProbeTimer(e.opts.Clock, 0)
	}
	sc.registerMetrics(e.reg)
	e.schedule(streams, &executor.FuncDU{
		DUName: "shared:" + key,
		Fn:     sc.step,
	}, sc.conns)
	return sc, nil
}

// registerMetrics exports the class's series under stream="<class key>":
// membership and delivery, and the eddy families a private eddy exports
// under its query label, read under the lock that excludes the stepping DU.
func (sc *sharedClass) registerMetrics(reg *metrics.Registry) {
	rec := recorder{reg, &sc.series}
	owner := fmt.Sprintf(`stream=%q`, sc.key)
	lbl := "{" + owner + "}"
	classStat := func(get func() float64) func() float64 {
		return func() float64 {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return get()
		}
	}
	rec.RegisterFunc("tcq_cacq_members"+lbl, metrics.KindGauge,
		classStat(func() float64 { return float64(len(sc.members)) }))
	rec.RegisterFunc("tcq_cacq_delivered_total"+lbl, metrics.KindCounter,
		classStat(func() float64 { return float64(sc.eng.Delivered()) }))
	// Tuples whose lineage bitmap died entirely (every member's grouped
	// filter rejected them) count as eddy drops in the shared super-query.
	rec.RegisterFunc("tcq_cacq_lineage_dropped_total"+lbl, metrics.KindCounter,
		classStat(func() float64 { return float64(sc.host.Stats().Dropped) }))

	var names []string
	var stems []*ops.SteMModule
	if seq, ok := sc.eng.(*cacq.Engine); ok {
		names, stems = seq.Host().ModuleNames(), seq.SteMs()
	}
	registerEddyMetrics(rec, owner, names, stems,
		func() eddy.Stats {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return sc.host.Stats()
		},
		func(i int) stem.Stats {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return stems[i].SteM().Stats()
		})
}

// step drains pending stream tuples through the shared engine in batches:
// one lineage-template lookup and one eddy entry per batch instead of per
// tuple. In the parallel configuration it flushes partial shard batches at
// the end of the step (so trickle traffic is not held back by batch
// boundaries); an arranged engine additionally seals one arrangement epoch
// per progressed step, releasing retired state for reclamation. The
// subscriber clones are the class's own — history retains the original,
// not the clone — so it hands them to the engine: the sequential engine
// routes a selection class's clone as the wide row itself, lineage in a
// reused bitmap, and returns the row to the pool when no member kept it. A
// retired class's DU retires.
func (sc *sharedClass) step() (progressed, done bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false, true
	}
	for s, conn := range sc.conns {
		for taken := 0; taken < sc.batch; {
			n := conn.RecvBatch(sc.buf)
			if n == 0 {
				break
			}
			taken += n
			progressed = true
			sc.ingest(s, sc.buf[:n])
			for i := 0; i < n; i++ {
				sc.buf[i] = nil
			}
		}
	}
	if progressed {
		if fl, ok := sc.eng.(interface{ Flush() }); ok {
			fl.Flush()
		}
		sc.eng.AdvanceEpoch()
	}
	return progressed, false
}

// add registers a query with the class, delivering into q's egress. A
// retired class answers errClassGone.
func (sc *sharedClass) add(q *RunningQuery, plan *sql.Plan) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return errClassGone
	}
	cq, err := sc.eng.AddQuery(plan.Footprint, plan.Selections, plan.Project,
		func(t *tuple.Tuple) { q.emit(t) })
	if err != nil {
		return err
	}
	sc.members[q.ID] = cq.ID
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

// retireLocked (e.mu held) takes sc out of the engine, once: out of
// e.shared, off its streams, its arrangements out of the registry and its
// series out of the metrics. With ifEmpty it leaves a class that has
// members alone. It reports whether it retired sc; the caller then closes
// it outside e.mu.
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
	e.arrReg.Drop(sc.key)
	recorder{e.reg, &sc.series}.unregister()
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

// SharedQueryCount reports how many standing queries share a class: the
// stream name keys a selection class, "A+B|colA=colB" a join class.
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

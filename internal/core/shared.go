package core

import (
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
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// sharedClass implements the paper's shared processing (§1.1, §3.1) inside
// the SQL engine: qualifying queries join a CACQ engine instead of getting
// a private eddy. Selection classes (one per stream) share one grouped-
// filter pass per tuple among all members; equijoin classes (one per
// stream-pair + join-column key; RegisterPlan decides whether equijoins are
// routed here) additionally share one SteM build — stored in the engine
// registry's multi-reader arrangements — among every overlapping join
// query. Queries enter and leave the running class dynamically.
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
}

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

// stopEngine stops a sharded engine's workers; the single engine has none.
func stopEngine(eng sharedEngine) {
	if cl, ok := eng.(interface{ Close() }); ok {
		cl.Close()
	}
}

// sharedMember is the runtime of a query inside a shared class: the class's
// DU steps the engine, so a member has nothing to step or stop, and its
// control plane is the class's — every member observes and re-routes the
// one super-query eddy.
type sharedMember struct{ sc *sharedClass }

func (sharedMember) step() (bool, bool)        { return false, false }
func (sharedMember) close()                    {}
func (sharedMember) stages() []ModuleTelemetry { return nil }

func (m sharedMember) control(fn func(h eddyHost, seed func(shard int) int64)) bool {
	m.sc.mu.Lock()
	defer m.sc.mu.Unlock()
	// The single or front engine is shard -1: classSeed+shard+2 throughout.
	base := classSeed(m.sc.key)
	fn(m.sc.host, func(shard int) int64 { return base + int64(shard) + 2 })
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

// sharedClassFor returns (creating if needed) the plan's shared class.
func (e *Engine) sharedClassFor(plan *sql.Plan) (*sharedClass, error) {
	key, streams, joins := sharedClassSpec(plan)
	e.mu.Lock()
	if sc, ok := e.shared[key]; ok {
		e.mu.Unlock()
		return sc, nil
	}
	e.mu.Unlock()

	sts := make([]*streamState, len(streams))
	for i, name := range streams {
		st, err := e.stream(name)
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
	// identically (the arrangement-equivalence pins compare two engines
	// running the same class), while distinct classes adapt independently.
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
				return e.routingPolicy(seed + int64(shard) + 2)
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
		seq, err := cacq.NewArranged(plan.Layout, joins, e.routingPolicy(seed), cacq.ArrangedConfig{
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
	}

	e.mu.Lock()
	if existing, raced := e.shared[key]; raced {
		e.mu.Unlock()
		for _, c := range sc.conns {
			c.Close()
		}
		stopEngine(sc.eng)
		return existing, nil
	}
	e.shared[key] = sc
	subBase := e.nextSub
	e.nextSub += len(streams)
	e.mu.Unlock()

	for i, st := range sts {
		sub := subBase + i
		sc.subIDs = append(sc.subIDs, sub)
		st.mu.Lock()
		st.subs[sub] = sc.conns[i]
		st.mu.Unlock()
	}

	if e.tracer != nil {
		// Tracing follows individual tuples through one eddy's hops; only
		// the sequential engine offers it (shards would interleave hops).
		if seq, ok := sc.eng.(*cacq.Engine); ok {
			seq.SetTracer(e.tracer, "shared:"+key)
		}
	}
	if e.opts.Introspect {
		sc.host.SetProbeTimer(e.opts.Clock, 0)
	}
	lbl := fmt.Sprintf(`{stream=%q}`, key)
	classStat := func(get func() float64) func() float64 {
		return func() float64 {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return get()
		}
	}
	e.reg.RegisterFunc("tcq_cacq_members"+lbl, metrics.KindGauge,
		classStat(func() float64 { return float64(len(sc.members)) }))
	e.reg.RegisterFunc("tcq_cacq_delivered_total"+lbl, metrics.KindCounter,
		classStat(func() float64 { return float64(sc.eng.Delivered()) }))
	// Tuples whose lineage bitmap died entirely (every member's grouped
	// filter rejected them) count as eddy drops in the shared super-query.
	e.reg.RegisterFunc("tcq_cacq_lineage_dropped_total"+lbl, metrics.KindCounter,
		classStat(func() float64 { return float64(sc.host.Stats().Dropped) }))

	e.schedule(streams, &executor.FuncDU{
		DUName: "shared:" + key,
		Fn:     sc.step,
	}, sc.conns)
	return sc, nil
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
// reused bitmap, and returns the row to the pool when no member kept it.
func (sc *sharedClass) step() (progressed, done bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
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

// close stops a parallel engine's workers and merge stage (no-op for the
// sequential engine, which has no goroutines).
func (sc *sharedClass) close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	stopEngine(sc.eng)
}

// add registers a query with the class, delivering into q's egress.
func (sc *sharedClass) add(q *RunningQuery, plan *sql.Plan) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	cq, err := sc.eng.AddQuery(plan.Footprint, plan.Selections, plan.Project,
		func(t *tuple.Tuple) { q.emit(t) })
	if err != nil {
		return err
	}
	sc.members[q.ID] = cq.ID
	return nil
}

// remove drops a query from the class.
func (sc *sharedClass) remove(queryID int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if cqID, ok := sc.members[queryID]; ok {
		sc.eng.RemoveQuery(cqID)
		delete(sc.members, queryID)
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

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/introspect"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/tuple"
)

// ModuleTelemetry is one module's live routing state: the observed work,
// selectivity, the policy's current lottery allocation, and the sampled
// probe latency. It is both the EXPLAIN/TOP row and the tcq.stats payload.
// Runtimes without an eddy report their pipeline stages in the same shape:
// Visits is what entered the stage, Produced what it generated, and the
// routing columns (Tickets, TicketShare) stay zero.
type ModuleTelemetry struct {
	Owner       string // owning eddy or pipeline ("q3" or "shared:quotes")
	Module      string
	Visits      int64
	Produced    int64
	Selectivity float64
	Tickets     int64
	TicketShare float64
	ProbeNanos  int64
}

// QueryTelemetry is one standing query's live execution state, aggregated
// across pipeline shards when its class runs on several.
type QueryTelemetry struct {
	ID      int
	Label   string // trace tag: "q<id>", or "shared:<stream>" inside a class
	HasEddy bool   // false for the windowed runtime (no adaptive routing state)
	Stats   eddy.Stats
	// QueueDepth is the pending-input backlog across the query's (or its
	// class's) input queues.
	QueueDepth int
	Results    int64
	// Modules has one row per eddy module, or per pipeline stage when the
	// runtime has no eddy — never empty for a running query.
	Modules []ModuleTelemetry
	// Policy names the routing policy steering this query's eddy (empty
	// without an eddy); Order is the policy's current deterministic probe
	// ranking as module names, best first.
	Policy string
	Order  []string
}

// moduleTelemetry zips one host's module names, eddy counters, and probe
// latencies (all in Stats order) into per-module rows; only policies with
// lottery tickets report those.
func moduleTelemetry(owner string, names []string, st eddy.Stats, probe []int64) []ModuleTelemetry {
	var total int64
	for _, tk := range st.Tickets {
		total += tk
	}
	out := make([]ModuleTelemetry, 0, len(names))
	for i, name := range names {
		mt := ModuleTelemetry{Owner: owner, Module: name, Visits: st.Modules[i].Visits,
			Produced: st.Modules[i].Produced, Selectivity: st.Modules[i].Selectivity(), ProbeNanos: probe[i]}
		if i < len(st.Tickets) {
			mt.Tickets = st.Tickets[i]
			if total > 0 {
				mt.TicketShare = float64(st.Tickets[i]) / float64(total)
			}
		}
		out = append(out, mt)
	}
	return out
}

// Telemetry returns the query's live execution state, whatever runtime
// executes it: for a shared-class member, the class's super-query state
// (every member shares it).
func (q *RunningQuery) Telemetry() QueryTelemetry {
	qt := QueryTelemetry{ID: q.ID, Label: q.label, Results: q.Results()}
	for _, c := range q.queues {
		qt.QueueDepth += c.Q.Len()
	}
	qt.HasEddy = q.rt.control(func(h eddyHost) {
		qt.Stats = h.Stats()
		names := h.ModuleNames()
		qt.Modules = moduleTelemetry(q.label, names, qt.Stats, h.ModuleProbeNanos())
		var order []int
		qt.Policy, order = h.PolicyInfo()
		qt.Order = orderNames(names, order)
	})
	if !qt.HasEddy {
		qt.Modules = q.rt.stages()
	}
	return qt
}

// ExplainQuery returns live per-operator telemetry for one standing query
// (the engine half of the EXPLAIN <id> server command).
func (e *Engine) ExplainQuery(qid int) (QueryTelemetry, error) {
	q, ok := e.Query(qid)
	if !ok {
		return QueryTelemetry{}, fmt.Errorf("core: query %d not found", qid)
	}
	return q.Telemetry(), nil
}

// TopModules returns the engine-wide hot-module table: every module or
// pipeline stage of every standing query (shared classes counted once, not
// per member), sorted by visits descending, capped at n (n < 1 returns all).
func (e *Engine) TopModules(n int) []ModuleTelemetry {
	var all []ModuleTelemetry
	for _, qt := range e.telemetryByOwner() {
		all = append(all, qt.Modules...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Visits > all[j].Visits })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// telemetryByOwner snapshots one QueryTelemetry per distinct label, in
// label order: each windowed query, and each shared class once through any
// one member (members share the class's eddy, so any of them reports it) —
// or, while it has none, through a bare handle on the class.
func (e *Engine) telemetryByOwner() []QueryTelemetry {
	e.mu.Lock()
	owners := make(map[string]*RunningQuery, len(e.queries)+len(e.shared))
	for _, sc := range e.shared {
		owners["shared:"+sc.key] = &RunningQuery{ID: -1, rt: sharedMember{sc}, label: "shared:" + sc.key, queues: sc.conns}
	}
	for _, q := range e.queries {
		owners[q.label] = q
	}
	e.mu.Unlock()
	out := make([]QueryTelemetry, 0, len(owners))
	for _, q := range owners {
		out = append(out, q.Telemetry())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// introspector publishes the engine's telemetry into the tcq.* streams: a
// periodic scrape-style tick snapshots counters the runtimes already keep
// (per-module stats, pool traffic), while push producers (tracer sink,
// chaos observer) stage rows in a bounded ring the tick drains. Everything
// enters the engine through the ordinary ingress path, non-blocking, so
// introspection subscribers can never back-pressure the data path.
type introspector struct {
	e        *Engine
	ring     *introspect.Ring
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	ticks    atomic.Int64
	// fed/dropped count rows offered to ingress by tick (the ring counts
	// its own producers separately).
	fed atomic.Int64
}

func newIntrospector(e *Engine) *introspector {
	in := &introspector{
		e:    e,
		ring: introspect.NewRing(4096),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for name, schema := range introspect.Schemas() {
		if err := e.createIntrospectStream(name, schema); err != nil {
			// Streams are registered before any user code runs; a duplicate
			// here is an engine bug.
			panic(fmt.Sprintf("core: introspection stream %s: %v", name, err))
		}
	}
	if e.tracer != nil {
		e.tracer.SetSink(in.publishRoute)
	}
	e.reg.RegisterFunc("tcq_introspect_published_total", metrics.KindCounter, func() float64 {
		pub, _ := in.ring.Stats()
		return float64(pub + in.fed.Load())
	})
	e.reg.RegisterFunc("tcq_introspect_dropped_total", metrics.KindCounter, func() float64 {
		_, dropped := in.ring.Stats()
		return float64(dropped)
	})
	e.reg.RegisterFunc("tcq_introspect_ticks_total", metrics.KindCounter, func() float64 {
		return float64(in.ticks.Load())
	})
	return in
}

// start launches the sampler goroutine on the engine clock.
func (in *introspector) start() {
	go func() {
		defer close(in.done)
		for {
			select {
			case <-in.stop:
				return
			case <-in.e.opts.Clock.After(in.e.opts.IntrospectInterval):
				in.tick()
			}
		}
	}()
}

// stopSampler quiesces the sampler goroutine (idempotent).
func (in *introspector) stopSampler() {
	in.stopOnce.Do(func() { close(in.stop) })
	<-in.done
}

// publishRoute is the tracer sink: one finished sampled trace becomes one
// tcq.routes row. Runs on the finishing eddy's goroutine; the ring bounds
// it at a non-blocking publish.
func (in *introspector) publishRoute(t *metrics.Trace) {
	ts := in.e.opts.Clock.Now().UnixNano()
	if n := len(t.Spans); n > 0 {
		ts = t.Spans[n-1].End.UnixNano()
	}
	in.ring.Publish(introspect.Row{
		Stream: introspect.RoutesStream,
		Vals: []tuple.Value{
			tuple.Time(ts),
			tuple.String_(t.Tag),
			tuple.Int(t.Seq),
			tuple.Bool(t.Emitted),
			tuple.Int(int64(len(t.Spans))),
			tuple.Int(t.Latency().Nanoseconds()),
			tuple.String_(t.Path()),
		},
	})
}

// ChaosObserver returns a fault-event callback publishing tcq.chaos rows;
// wire it with chaos.Injector.SetObserver. Nil when introspection is off,
// which SetObserver accepts as "no observer".
func (e *Engine) ChaosObserver() func(chaos.Event) {
	if e.intro == nil {
		return nil
	}
	in := e.intro
	return func(ev chaos.Event) {
		in.ring.Publish(introspect.Row{
			Stream: introspect.ChaosStream,
			Vals: []tuple.Value{
				tuple.Time(in.e.opts.Clock.Now().UnixNano()),
				tuple.String_(ev.Site),
				tuple.Int(ev.N),
				tuple.String_(ev.Fault.String()),
			},
		})
	}
}

// TickIntrospection runs one synchronous collector tick (snapshot counters,
// drain the producer ring, feed the tcq.* streams). The background sampler
// does this every IntrospectInterval; tests and the server call it directly
// for deterministic output. No-op without Options.Introspect.
func (e *Engine) TickIntrospection() {
	if e.intro != nil {
		e.intro.tick()
	}
}

// tick publishes one snapshot of the engine's telemetry.
func (in *introspector) tick() {
	e := in.e
	in.ticks.Add(1)
	now := e.opts.Clock.Now().UnixNano()

	e.mu.Lock()
	stopped := e.stopped
	e.mu.Unlock()
	if stopped {
		return
	}

	byStream := make(map[string][]*tuple.Tuple)
	statsRow := func(owner string, queueDepth int, m ModuleTelemetry) {
		byStream[introspect.StatsStream] = append(byStream[introspect.StatsStream], &tuple.Tuple{
			Vals: []tuple.Value{
				tuple.Time(now),
				tuple.String_(owner),
				tuple.String_(m.Module),
				tuple.Int(m.Visits),
				tuple.Int(m.Produced),
				tuple.Float(m.Selectivity),
				tuple.Int(m.Tickets),
				tuple.Float(m.TicketShare),
				tuple.Int(int64(queueDepth)),
				tuple.Int(m.ProbeNanos),
			},
		})
	}
	for _, qt := range e.telemetryByOwner() {
		for _, m := range qt.Modules {
			statsRow(qt.Label, qt.QueueDepth, m)
		}
	}

	// One tcq.arrange row per live class's arrangement per tick (none until
	// a join class exists), read by every member of the class.
	e.eachArrangement(func(sc *sharedClass, a *arrange.Arrangement) {
		st := a.Stats()
		byStream[introspect.ArrangeStream] = append(byStream[introspect.ArrangeStream], &tuple.Tuple{
			Vals: []tuple.Value{
				tuple.Time(now),
				tuple.String_(sc.key),
				tuple.String_(a.Name()),
				tuple.Int(int64(len(sc.members))),
				tuple.Int(int64(st.Size)),
				tuple.Int(st.Bytes),
				tuple.Int(st.Evicted),
				tuple.Int(st.ReclaimedBytes),
			},
		})
	})

	poolRow := func(name string, gets, hits, puts, drops int64) {
		byStream[introspect.PoolStream] = append(byStream[introspect.PoolStream], &tuple.Tuple{
			Vals: []tuple.Value{
				tuple.Time(now), tuple.String_(name),
				tuple.Int(gets), tuple.Int(hits), tuple.Int(puts), tuple.Int(drops),
			},
		})
	}
	ps := e.recycler.Stats()
	poolRow("tuple", ps.Gets, ps.Hits, ps.Puts, ps.Drops)
	if e.pool != nil {
		hits, misses := e.pool.Counters()
		// Buffer-pool traffic mapped onto the pool schema: gets are total
		// lookups, puts are segment decodes (the misses' cost).
		poolRow("buffer", hits+misses, hits, e.pool.Decodes(), 0)
	}

	for _, row := range in.ring.Drain() {
		byStream[row.Stream] = append(byStream[row.Stream], &tuple.Tuple{Vals: row.Vals})
	}

	for stream, ts := range byStream {
		in.fed.Add(int64(len(ts)))
		// Always shed: telemetry must never back-pressure the collector.
		_, _ = e.feedMany(stream, ts, true)
	}
}

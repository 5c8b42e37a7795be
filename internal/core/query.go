package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// Result is one delivered answer: the output tuple plus the window
// instance it belongs to (T is meaningful only for windowed queries, where
// output is a sequence of sets, each associated with an instant — §4.1).
type Result struct {
	T     int64
	Tuple *tuple.Tuple
}

// RunningQuery is the handle of one standing continuous query.
type RunningQuery struct {
	ID   int
	Plan *sql.Plan

	engine *Engine
	inputs []*fjord.Conn // owned input queues, one per FROM position
	subIDs []subRef      // subscription handles for detach
	rt     runtime
	// shared is non-nil when the query runs inside a shared CACQ class
	// (§3.1); only registration and teardown consult it, everything else
	// goes through rt.
	shared *sharedClass
	// label names the eddy or pipeline executing the query in traces and
	// telemetry: "q<id>", or "shared:<class key>" for every class member.
	label string
	// queues are where the query's tuples wait: its own inputs, or its
	// shared class's (sheds there affect every member).
	queues []*fjord.Conn
	// parStats reads the shard layer's counters when the query's eddy host
	// is partitioned (nil otherwise). Lock-free, unlike rt.control: STATS
	// polls it, and must not queue behind the stepping DU twice.
	parStats func() eddy.ParallelStats

	push *egress.PushEgress
	pull *egress.PullEgress

	// recyclable marks runtimes whose emissions are fresh sole-reference
	// tuples: with no push clients and no sinks attached at publish time,
	// the pull egress owns the tuple's memory and may recycle it when it
	// ages out of retention. Set (before any emission or goroutine spawn)
	// only by the unwindowed runtimes; windowed queries re-emit buffered
	// pointers and shared classes may deliver one pointer to many queries,
	// so both stay unowned.
	recyclable bool

	sinkMu sync.Mutex
	sinks  []func(*tuple.Tuple)

	// metricNames lists every registry series this query registered, so
	// teardown can unregister by exact name instead of scanning the whole
	// registry — O(own series), not O(all series), which matters when
	// thousands of queries deregister at once.
	metricNames []string

	results   atomic.Int64
	doneFlag  atomic.Bool
	doneCh    chan struct{}
	closeOnce sync.Once
}

// runtime is the per-query execution strategy and its control plane. A
// private eddy (inline or partitioned), a shared-class member and the
// windowed runtime all satisfy it, so nothing above asks which one a query
// landed on.
type runtime interface {
	// step consumes pending input and produces results; progressed
	// reports whether anything happened, finished whether the query has
	// produced its final window instance.
	step() (progressed, finished bool)
	// close stops whatever could outlive the stepping DU (worker and merge
	// goroutines); Deregister and shutdown call it because the executor may
	// never step the DU again. Idempotent.
	close()
	// control runs fn on the query's eddy host under the lock that
	// excludes the stepping DU; it returns false without calling fn when
	// there is no adaptive routing layer (windowed).
	control(fn func(h eddyHost)) bool
	// stages reports one row per pipeline stage, from counters already
	// kept, for a runtime without an eddy (nil with one: the host's modules
	// are the rows).
	stages() []ModuleTelemetry
}

// Subscribe attaches a push client to the query's results.
func (q *RunningQuery) Subscribe(buffer int) (int, <-chan *tuple.Tuple) {
	return q.push.Subscribe(buffer)
}

// Unsubscribe detaches a push client.
func (q *RunningQuery) Unsubscribe(id int) { q.push.Unsubscribe(id) }

// Cursor registers a pull client replaying all retained results.
func (q *RunningQuery) Cursor() int { return q.pull.RegisterAt(0) }

// Fetch returns results since the pull cursor's last fetch.
func (q *RunningQuery) Fetch(cursor int) ([]*tuple.Tuple, error) {
	res, _, err := q.pull.Fetch(cursor)
	return res, err
}

// CloseCursor drops a pull cursor; a client that goes away closes its own.
func (q *RunningQuery) CloseCursor(cursor int) { q.pull.Deregister(cursor) }

// Cursors returns the number of open pull cursors.
func (q *RunningQuery) Cursors() int { return q.pull.Cursors() }

// Results returns the lifetime result count.
func (q *RunningQuery) Results() int64 { return q.results.Load() }

// InputDrops returns the number of tuples shed from this query's input
// queues under QoS load shedding (always 0 without Options.Shed). For a
// query running in a shared class the count is the class queue's — sheds
// there affect every member.
func (q *RunningQuery) InputDrops() int64 {
	var n int64
	for _, c := range q.queues {
		_, dropped := c.Q.Stats()
		n += dropped
	}
	return n
}

// Done reports whether a finite query has produced its last instance.
func (q *RunningQuery) Done() bool { return q.doneFlag.Load() }

// Wait blocks until a finite query completes (standing queries never do).
func (q *RunningQuery) Wait() { <-q.doneCh }

// AddSink attaches an extra result consumer (e.g. a prioritized egress);
// sinks must not block.
func (q *RunningQuery) AddSink(fn func(*tuple.Tuple)) {
	q.sinkMu.Lock()
	q.sinks = append(q.sinks, fn)
	q.sinkMu.Unlock()
}

// emit delivers one result to both egress paths and any extra sinks. The
// result count moves after the publishes: whoever reads Results() == n can
// fetch n rows.
func (q *RunningQuery) emit(t *tuple.Tuple) {
	nPush := q.push.Publish(t)
	q.sinkMu.Lock()
	sinks := q.sinks
	q.sinkMu.Unlock()
	// The pull log owns the tuple's memory only when no one else could
	// still hold the pointer.
	q.pull.PublishOwned(t, q.recyclable && nPush == 0 && len(sinks) == 0)
	q.results.Add(1)
	for _, fn := range sinks {
		fn(t)
	}
}

// emitBatch delivers a result batch under one lock acquisition per egress.
func (q *RunningQuery) emitBatch(ts []*tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	nPush := q.push.PublishBatch(ts)
	q.sinkMu.Lock()
	sinks := q.sinks
	q.sinkMu.Unlock()
	q.pull.PublishBatch(ts, q.recyclable && nPush == 0 && len(sinks) == 0)
	q.results.Add(int64(len(ts)))
	for _, fn := range sinks {
		for _, t := range ts {
			fn(t)
		}
	}
}

// finish retires the query exactly once — its DU finishing and a
// concurrent Deregister/Stop may both get here — dropping its metric series
// before waiters are released.
func (q *RunningQuery) finish() {
	q.closeOnce.Do(func() {
		q.unregisterMetrics()
		q.doneFlag.Store(true)
		close(q.doneCh)
	})
}

// registerMetrics exports the query's runtime-independent series (each
// runtime registers its own at construction, through the same
// queryMetrics). Everything is computed at scrape time from counters
// already kept, so registration adds no hot-path cost. All series carry a
// query="<id>" label and are recorded in q.metricNames so
// unregisterMetrics can remove them by exact name.
func (q *RunningQuery) registerMetrics() {
	reg := queryMetrics{q}
	lbl := fmt.Sprintf(`{query="%d"}`, q.ID)
	reg.RegisterFunc("tcq_query_results_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(q.Results())
	})
	reg.RegisterFunc("tcq_egress_push_sent_total"+lbl, metrics.KindCounter, func() float64 {
		sent, _ := q.push.Stats()
		return float64(sent)
	})
	reg.RegisterFunc("tcq_egress_push_dropped_total"+lbl, metrics.KindCounter, func() float64 {
		_, dropped := q.push.Stats()
		return float64(dropped)
	})
	reg.RegisterFunc("tcq_egress_pull_retained"+lbl, metrics.KindGauge, func() float64 {
		return float64(q.pull.Len())
	})
	// Rows that aged out of the pull log, and the ones a returning cursor
	// was told it missed: published = retained + evicted, per query.
	reg.RegisterFunc("tcq_egress_pull_evicted_total"+lbl, metrics.KindCounter, func() float64 {
		evicted, _ := q.pull.Stats()
		return float64(evicted)
	})
	reg.RegisterFunc("tcq_egress_pull_missed_total"+lbl, metrics.KindCounter, func() float64 {
		_, missed := q.pull.Stats()
		return float64(missed)
	})
	for pos, conn := range q.inputs {
		conn := conn
		plbl := fmt.Sprintf(`{query="%d",pos="%d"}`, q.ID, pos)
		reg.RegisterFunc("tcq_query_queue_depth"+plbl, metrics.KindGauge, func() float64 {
			return float64(conn.Q.Len())
		})
		reg.RegisterFunc("tcq_query_shed_total"+plbl, metrics.KindCounter, func() float64 {
			_, dropped := conn.Q.Stats()
			return float64(dropped)
		})
	}
}

// queryMetrics records each registered series name on the query while
// forwarding to the engine registry, so teardown knows exactly what to
// unregister.
type queryMetrics struct{ q *RunningQuery }

// RegisterFunc forwards to the engine registry and records the name.
func (m queryMetrics) RegisterFunc(name string, kind metrics.Kind, fn func() float64) {
	m.q.metricNames = append(m.q.metricNames, name)
	m.q.engine.reg.RegisterFunc(name, kind, fn)
}

// unregisterMetrics drops every series this query registered, by exact
// name.
func (q *RunningQuery) unregisterMetrics() {
	for _, name := range q.metricNames {
		q.engine.reg.Unregister(name)
	}
	q.metricNames = nil
}

// RegisterPlan schedules a bound plan as a standing query.
func (e *Engine) RegisterPlan(plan *sql.Plan) (*RunningQuery, error) {
	if plan.HasAgg() && plan.Loop == nil && len(plan.GroupBy) > 0 {
		return nil, fmt.Errorf("core: grouped aggregates require a window (for-loop) clause")
	}
	e.mu.Lock()
	id := e.nextQID
	e.nextQID++
	e.mu.Unlock()

	q := &RunningQuery{
		ID:     id,
		Plan:   plan,
		engine: e,
		push:   egress.NewPushEgress(),
		pull:   egress.NewPullEgress(1 << 16),
		doneCh: make(chan struct{}),
	}
	q.pull.SetRecycler(e.recycler)

	// Qualifying queries share a CACQ class: one grouped-filter pass per
	// tuple serves every selection member (§3.1), and — when shared
	// arrangements are on — one SteM build serves every overlapping
	// equijoin member.
	if qualifiesShared(plan) ||
		(e.opts.SharedArrangements && qualifiesSharedJoin(plan)) {
		sc, err := e.sharedClassFor(plan)
		if err != nil {
			return nil, err
		}
		if err := sc.add(q, plan); err != nil {
			return nil, err
		}
		q.shared, q.rt = sc, sharedMember{sc}
		q.label, q.queues, q.parStats = "shared:"+sc.key, sc.conns, sc.parStats
		e.mu.Lock()
		e.queries[id] = q
		e.mu.Unlock()
		q.registerMetrics()
		return q, nil
	}

	// Wire an input queue per FROM position (a self-join subscribes to
	// one stream twice) and load history for windowed queries whose
	// windows may reach into the past.
	var names []string
	for _, entry := range plan.Entries {
		names = append(names, entry.Name)
		st, err := e.stream(entry.Name)
		if err != nil {
			e.detach(q)
			return nil, err
		}
		conn := fjord.NewConn(fjord.Push, e.opts.QueueCap)
		q.inputs = append(q.inputs, conn)
		e.mu.Lock()
		sub := e.nextSub
		e.nextSub++
		e.mu.Unlock()
		st.mu.Lock()
		st.subs[sub] = conn
		st.mu.Unlock()
		q.subIDs = append(q.subIDs, subRef{stream: entry.Name, id: sub})
	}

	q.label, q.queues = fmt.Sprintf("q%d", id), q.inputs

	var err error
	switch {
	case plan.Loop != nil:
		q.rt, err = newWindowRuntime(q)
	default:
		// One private eddy; with Workers > 1 a partitionable plan gets the
		// hash-partitioning stage in front of it (see eddyRuntime).
		q.rt, err = newEddyRuntime(q)
	}
	if err != nil {
		e.detach(q)
		q.unregisterMetrics()
		return nil, err
	}

	e.mu.Lock()
	e.queries[id] = q
	e.mu.Unlock()
	q.registerMetrics()

	du := &executor.FuncDU{
		DUName: q.label,
		Fn: func() (bool, bool) {
			progressed, finished := q.rt.step()
			if finished {
				q.finish()
				q.engine.detach(q)
				q.engine.mu.Lock()
				delete(q.engine.queries, q.ID)
				q.engine.mu.Unlock()
			}
			return progressed, finished
		},
	}
	e.schedule(names, du, q.inputs)
	return q, nil
}

// schedule submits du under the class owning streams and has each of its
// input queues rouse that class's EO once per push call, so the EO parks
// while they are empty instead of polling them.
func (e *Engine) schedule(streams []string, du executor.DispatchUnit, inputs []*fjord.Conn) {
	eo := e.exec.Submit(streams, du)
	wake := eo.Rouse
	for _, c := range inputs {
		c.Q.Notify(wake)
	}
	wake() // a push that landed between Submit and Notify roused nobody
}

// subRef names one stream subscription held by a query.
type subRef struct {
	stream string
	id     int
}

// detach unsubscribes the query's input queues.
func (e *Engine) detach(q *RunningQuery) {
	for _, ref := range q.subIDs {
		if st, err := e.stream(ref.stream); err == nil {
			st.mu.Lock()
			delete(st.subs, ref.id)
			st.mu.Unlock()
		}
	}
	for _, c := range q.inputs {
		c.Close()
	}
}

// Deregister removes a standing query. Its DU notices the closed inputs
// and retires.
func (e *Engine) Deregister(id int) error {
	e.mu.Lock()
	q, ok := e.queries[id]
	if ok {
		delete(e.queries, id)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: query %d not found", id)
	}
	e.deregister(q, true)
	return nil
}

// deregister tears one query down. dropShared removes it from its shared
// class's membership and filters; Engine.Stop passes false because it
// closes whole classes right after, making per-query removal O(members)
// of wasted work.
func (e *Engine) deregister(q *RunningQuery, dropShared bool) {
	if dropShared && q.shared != nil {
		q.shared.remove(q.ID)
	}
	e.detach(q)
	q.rt.close()
	q.finish()
}

// tableContents returns the full contents of a static table (for FROM
// entries without WindowIs).
func (e *Engine) tableContents(entry *catalog.Entry) ([]*tuple.Tuple, error) {
	st, err := e.stream(entry.Name)
	if err != nil {
		return nil, err
	}
	return st.historyRange(-1<<62, 1<<62)
}

// EddyStats returns the adaptive-routing counters behind this query: its
// private eddy (summed over shards) or its shared class's. ok is false for
// windowed queries, whose runtime has no eddy.
func (q *RunningQuery) EddyStats() (st eddy.Stats, ok bool) {
	ok = q.rt.control(func(h eddyHost) { st = h.Stats() })
	return st, ok
}

// ParallelStats returns the shard-layer counters (handoff batches, queue
// depths, merge buffer high-water mark) of a hash-partitioned eddy host;
// ok is false on an inline host and on runtimes without an eddy.
func (q *RunningQuery) ParallelStats() (eddy.ParallelStats, bool) {
	if q.parStats == nil {
		return eddy.ParallelStats{}, false
	}
	return q.parStats(), true
}

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
	// shared is the CACQ class (§3.1) an unwindowed query is a member of;
	// only registration and teardown consult it, everything else goes
	// through rt.
	shared *sharedClass
	// label names the eddy or pipeline executing the query in traces and
	// telemetry: "shared:<class key>" for a class member, "q<id>" for a
	// windowed query.
	label string
	// queues are where the query's tuples wait: its own inputs, or its
	// shared class's (sheds there affect every member).
	queues []*fjord.Conn
	// parStats reads the pipeline's counters when the query's eddy host is
	// a batch pipeline (nil otherwise). Lock-free, unlike rt.control: STATS
	// polls it, and must not queue behind the stepping DU twice.
	parStats func() eddy.ParallelStats

	// pull is the query's result log: FETCH cursors and push readers
	// (followers) alike read it.
	pull *egress.PullEgress
	// pushSent and pushMissed count the rows push readers were handed and
	// the rows they missed behind the log's cap.
	pushSent, pushMissed atomic.Int64

	// subMu guards subs, which stops each RunningQuery.Subscribe reader,
	// by subscription id, and waits until it has closed its channel.
	subMu   sync.Mutex
	subs    map[int]func()
	nextSub int

	// metricNames lists every registry series this query registered
	// (through metrics()), for teardown to unregister by exact name.
	metricNames []string

	results   atomic.Int64
	doneFlag  atomic.Bool
	doneCh    chan struct{}
	closeOnce sync.Once
}

// runtime is the per-query execution strategy and its control plane. A
// class member and the windowed runtime both satisfy it, so nothing above
// asks which one a query landed on.
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
	// stages reports one row per pipeline stage, from counters it already
	// maintains, for a runtime without an eddy (nil with one: the host's modules
	// are the rows).
	stages() []ModuleTelemetry
}

// Follow starts a push reader of the query's results: a cursor on its
// result log that starts at the log's end, and a goroutine that waits for
// each publish, fetches the rows past the cursor and hands them to deliver
// as one encoded run. deliver may block, and returns false to stop. Every
// result published after Follow returns reaches the reader, unless the log
// ages it out first: those rows count in tcq_egress_push_dropped_total.
// The reader ends when stop closes, when deliver returns false, or once the
// query has ended and a last fetch has been delivered; then exit, if not
// nil, runs.
func (q *RunningQuery) Follow(stop <-chan struct{}, deliver func(egress.Encoded) bool, exit func()) {
	cur, wake := q.pull.Follow()
	go func() {
		if exit != nil {
			defer exit()
		}
		defer q.pull.Deregister(cur)
		var buf []byte
		for {
			ended := false
			select {
			case <-wake:
			case <-q.doneCh:
				ended = true
			case <-stop:
				return
			}
			enc, missed, err := q.pull.FetchEncoded(cur, buf[:0])
			if err != nil {
				return // the cursor is the reader's own: cannot happen
			}
			buf = enc.Buf
			q.pushMissed.Add(missed)
			q.pushSent.Add(int64(enc.Rows))
			if (enc.Rows > 0 && !deliver(enc)) || ended {
				return
			}
		}
	}()
}

// Subscribe attaches a push client to the query's results: a reader
// (Follow) that decodes each result into a fresh tuple the client owns and
// sends it on the returned channel, waiting while the channel is full. A
// slow client holds up only its own reader, and loses rows only when the
// result log ages them out first (tcq_egress_push_dropped_total). The
// channel closes after the query's last result, on Unsubscribe, or when
// the engine stops.
func (q *RunningQuery) Subscribe(buffer int) (int, <-chan *tuple.Tuple) {
	return SubscribeAs(q, buffer, (*tuple.Tuple).Clone, nil)
}

// SubscribeAs is Subscribe delivering conv(row) for each result: conv
// copies what it keeps of a row decoded into a scratch tuple. The reader
// decodes one row per send, so one that waits on a full channel holds its
// fetched run encoded, and one row converted. exit, if not nil, runs as
// the reader ends, before the channel closes.
func SubscribeAs[T any](q *RunningQuery, buffer int, conv func(*tuple.Tuple) T, exit func()) (int, <-chan T) {
	if buffer < 1 {
		buffer = 64
	}
	ch := make(chan T, buffer)
	stop, exited := make(chan struct{}), make(chan struct{})
	q.subMu.Lock()
	id := q.nextSub
	q.nextSub++
	q.subs[id] = func() { close(stop); <-exited }
	q.subMu.Unlock()
	quit := q.engine.quit
	var row tuple.Tuple
	q.Follow(stop, func(enc egress.Encoded) bool {
		sent := true
		err := enc.Each(&row, func(t *tuple.Tuple) bool {
			select {
			case ch <- conv(t):
			case <-stop:
				sent = false
			case <-quit:
				sent = false
			}
			return sent
		})
		return sent && err == nil
	}, func() {
		q.subMu.Lock()
		delete(q.subs, id)
		q.subMu.Unlock()
		if exit != nil {
			exit()
		}
		close(ch)
		close(exited)
	})
	return id, ch
}

// Unsubscribe detaches a push client: its channel is closed when
// Unsubscribe returns, and rows its reader had not yet sent are not
// delivered.
func (q *RunningQuery) Unsubscribe(id int) {
	q.subMu.Lock()
	stop, ok := q.subs[id]
	delete(q.subs, id)
	q.subMu.Unlock()
	if ok {
		stop()
	}
}

// Cursor registers a pull client replaying all retained results.
func (q *RunningQuery) Cursor() int { return q.pull.RegisterAt(0) }

// Fetch returns results since the pull cursor's last fetch, decoded into
// fresh tuples the caller owns.
func (q *RunningQuery) Fetch(cursor int) ([]*tuple.Tuple, error) {
	res, _, err := q.pull.Fetch(cursor)
	return res, err
}

// FetchEncoded is Fetch leaving the rows in the pull log's encoding,
// appended to dst, for a caller that decodes them into its own memory.
func (q *RunningQuery) FetchEncoded(cursor int, dst []byte) (egress.Encoded, error) {
	enc, _, err := q.pull.FetchEncoded(cursor, dst)
	return enc, err
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

// Finished returns a channel closed once the query has ended: finite and
// complete, deregistered, or stopped with its engine.
func (q *RunningQuery) Finished() <-chan struct{} { return q.doneCh }

// emit publishes one result to the query's result log. The result count
// moves after the publish: whoever reads Results() == n can fetch n rows.
// The log keeps the row's values, never the row, so t is dead once emit
// returns and its producer may reuse it.
func (q *RunningQuery) emit(t *tuple.Tuple) {
	q.pull.Publish(t)
	q.results.Add(1)
}

// emitBatch publishes a result batch under one lock acquisition, as emit
// does one result.
func (q *RunningQuery) emitBatch(ts []*tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	q.pull.PublishBatch(ts, false)
	q.results.Add(int64(len(ts)))
}

// finish retires the query exactly once — its DU finishing and a
// concurrent Deregister/Stop may both get here — dropping its metric series
// before waiters and push readers are released.
func (q *RunningQuery) finish() {
	q.closeOnce.Do(func() {
		q.metrics().unregister()
		q.doneFlag.Store(true)
		close(q.doneCh)
	})
}

// registerMetrics exports the query's runtime-independent series (each
// runtime registers its own at construction, through the same recorder).
// Everything is computed at scrape time from counters already maintained, so
// registration adds no hot-path cost. All series carry a query="<id>"
// label.
func (q *RunningQuery) registerMetrics() {
	reg := q.metrics()
	lbl := fmt.Sprintf(`{query="%d"}`, q.ID)
	reg.RegisterFunc("tcq_query_results_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(q.Results())
	})
	// Rows push readers fetched, and the rows they missed because the log
	// aged them out before their next fetch.
	reg.RegisterFunc("tcq_egress_push_sent_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(q.pushSent.Load())
	})
	reg.RegisterFunc("tcq_egress_push_dropped_total"+lbl, metrics.KindCounter, func() float64 {
		return float64(q.pushMissed.Load())
	})
	reg.RegisterFunc("tcq_egress_pull_retained"+lbl, metrics.KindGauge, func() float64 {
		return float64(q.pull.Len())
	})
	reg.RegisterFunc("tcq_egress_pull_bytes"+lbl, metrics.KindGauge, func() float64 {
		return float64(q.pull.Bytes())
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

// recorder forwards registrations to the engine registry and records each
// name, so its owner's teardown unregisters by exact name instead of
// scanning the whole registry — O(own series), not O(all series), which
// matters when thousands of queries deregister at once.
type recorder struct {
	reg   *metrics.Registry
	names *[]string
}

// metrics returns the recorder of the query's series.
func (q *RunningQuery) metrics() recorder { return recorder{q.engine.reg, &q.metricNames} }

// RegisterFunc forwards to the engine registry and records the name.
func (r recorder) RegisterFunc(name string, kind metrics.Kind, fn func() float64) {
	*r.names = append(*r.names, name)
	r.reg.RegisterFunc(name, kind, fn)
}

// unregister drops every series recorded, by exact name.
func (r recorder) unregister() {
	for _, name := range *r.names {
		r.reg.Unregister(name)
	}
	*r.names = nil
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
		pull:   egress.NewPullEgress(1 << 16),
		subs:   make(map[int]func()),
		doneCh: make(chan struct{}),
	}

	// Every unwindowed query is a CACQ class member (§3.1): one
	// grouped-filter pass per tuple and one SteM build per FROM position
	// serve every member with the plan's class key, a lone one included.
	if plan.Loop == nil {
		sc, err := e.joinClass(q, plan)
		if err != nil {
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
	// one stream twice); the windowed runtime loads the history its
	// windows may reach into.
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
	if q.rt, err = newWindowRuntime(q); err != nil {
		e.detach(q)
		q.metrics().unregister()
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
// class's membership and filters, retiring the class with its last member;
// Engine.Stop passes false because it retires whole classes, making
// per-query removal O(members) of wasted work.
func (e *Engine) deregister(q *RunningQuery, dropShared bool) {
	if dropShared && q.shared != nil {
		e.leaveClass(q.shared, q.ID)
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
// class's eddy, summed over shards. ok is false for windowed queries, whose
// runtime has no eddy.
func (q *RunningQuery) EddyStats() (st eddy.Stats, ok bool) {
	ok = q.rt.control(func(h eddyHost) { st = h.Stats() })
	return st, ok
}

// ParallelStats returns the pipeline counters (batches, shard queue depths,
// merged results) of a selection class running on worker shards; ok is
// false on an inline host and on runtimes without an eddy.
func (q *RunningQuery) ParallelStats() (eddy.ParallelStats, bool) {
	if q.parStats == nil {
		return eddy.ParallelStats{}, false
	}
	return q.parStats(), true
}

// Package core is TelegraphCQ's engine: the paper's primary contribution
// assembled from the substrates. It owns the catalog, accepts stream
// definitions and data (locally or via ingress wrappers), parses and
// registers continuous queries, folds them dynamically into the running
// executor (§4.2.1 "the listener accepts multiple continuous queries and
// adds them dynamically to the running executor"), and delivers results
// through push and pull egress.
//
// Execution model: each registered query becomes one Dispatch Unit
// scheduled on the Execution Object owning its footprint class.
// Unwindowed continuous queries run through an adaptive eddy (filters +
// SteMs, routed by the one rule in routing.go; hash-partitioned across
// worker shards when Options.Workers > 1 and the plan allows); windowed
// queries follow the paper's sequence-of-sets semantics — for every
// for-loop instance the engine evaluates the query over the declared window
// of each stream, buffered in memory and optionally spooled through the
// storage manager.
package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/introspect"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
)

// Options configures an Engine.
type Options struct {
	// EOs is the number of Execution Objects (default 2).
	EOs int
	// SpoolDir enables disk spooling of streams when non-empty.
	SpoolDir string
	// SegmentSize is tuples per spool segment (default 1024).
	SegmentSize int
	// PoolSegments bounds the buffer pool (default 64 segments).
	PoolSegments int
	// QueueCap is the per-query input queue capacity (default 4096).
	QueueCap int
	// Shed enables QoS load shedding (§4.3): when a query's input queue
	// is full, newly arriving tuples for that query are dropped (and
	// counted) instead of back-pressuring the producer. The stream's
	// history/spool still records every tuple.
	Shed bool
	// TraceSampleRate enables tuple-lineage tracing: each tuple entering
	// an eddy is sampled with this probability (0 disables, 1 traces
	// everything) and its module-visit path recorded with per-hop
	// latency, retrievable via Engine.Traces / the TRACE wire command.
	TraceSampleRate float64
	// TraceKeep bounds retained traces per query (default 32).
	TraceKeep int
	// Clock supplies engine-internal timing (trace hop latency, window
	// fire latency). nil defaults to the real clock; tests inject a
	// virtual clock for deterministic runs.
	Clock chaos.Clock
	// Workers selects intra-process parallel execution: an eligible eddy
	// (a shared CACQ class, a private unwindowed eddy whose join edges form
	// one equijoin key class) gets a hash-partitioning stage in front of
	// Workers shard copies of its modules, with a merge stage behind them.
	// 1 (the default) runs every eddy inline on its dispatch unit;
	// ineligible plans stay inline regardless of this setting.
	Workers int
	// BatchSize is the tuple-batch granularity of the whole dataflow:
	// ingress fan-out, each runtime's input drain, eddy entry, and shard
	// handoff in parallel execution all move up to BatchSize tuples per
	// operation (default 64). BatchSize 1 degenerates to per-tuple
	// processing with identical output sequences.
	BatchSize int
	// SharedArrangements enables shared-arrangement execution: qualifying
	// two-stream equijoin queries join a shared class whose SteM builds
	// are stored once in multi-reader arrangements (one writer, epoch-
	// based reclamation), so the N-th overlapping continuous query costs a
	// registry handle instead of a state copy. Off (the default) gives
	// every equijoin its private eddy.
	SharedArrangements bool
	// Introspect registers the engine's telemetry streams (tcq.stats,
	// tcq.routes, tcq.pool, tcq.chaos) as ordinary catalog sources fed by a
	// background collector, so continuous queries can run over the engine's
	// own runtime state. It also enables sampled probe timing on SteMs and
	// grouped filters. Idle introspection (streams registered, nobody
	// subscribed) costs only the collector's scrape-style tick.
	Introspect bool
	// IntrospectInterval is the collector's tick period (default 250ms).
	IntrospectInterval time.Duration
}

func (o *Options) defaults() {
	if o.EOs < 1 {
		o.EOs = 2
	}
	if o.Clock == nil {
		o.Clock = chaos.Real()
	}
	if o.SegmentSize < 1 {
		o.SegmentSize = 1024
	}
	if o.PoolSegments < 1 {
		o.PoolSegments = 64
	}
	if o.QueueCap < 1 {
		o.QueueCap = 4096
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.BatchSize < 1 {
		o.BatchSize = 64
	}
	if o.IntrospectInterval <= 0 {
		o.IntrospectInterval = 250 * time.Millisecond
	}
}

// streamState is the engine-side record of one stream.
type streamState struct {
	entry *catalog.Entry
	store *storage.SegmentStore // nil without spooling
	mu    sync.Mutex
	seq   int64
	// subs is keyed by subscription id: one query may subscribe to the
	// same stream at several FROM positions (self-joins, paper Ex. 4).
	subs map[int]*fjord.Conn
	// history retains all tuples in memory when spooling is off, so
	// late-registered queries can still see old data (PSoup semantics).
	history []*tuple.Tuple
	histCap int
	// fed counts tuples delivered into this stream (ingress feed rate).
	fed *metrics.Counter
}

// Engine is the running system.
type Engine struct {
	opts   Options
	cat    *catalog.Catalog
	exec   *executor.Executor
	pool   *storage.BufferPool
	reg    *metrics.Registry
	tracer *metrics.Tracer // nil unless TraceSampleRate > 0
	// recycler reclaims hot-path tuple allocations across the whole
	// dataflow: ingress draws subscriber clones from it, drivers return
	// spent narrow tuples after widening, eddies return provably-dead
	// drops, and the pull egress returns sole-reference results that age
	// out of retention.
	recycler *tuple.Pool

	// arrReg holds every shared class's arrangements, keyed on
	// (class, stream, shard), for metrics and introspection to enumerate;
	// a private eddy's SteMs own theirs and are not in it.
	arrReg *arrange.Registry

	// intro is the introspection collector (nil without Options.Introspect).
	intro *introspector

	mu      sync.Mutex
	streams map[string]*streamState
	queries map[int]*RunningQuery
	shared  map[string]*sharedClass
	nextQID int
	nextSub int
	stopped bool
}

// NewEngine starts an engine.
func NewEngine(opts Options) *Engine {
	opts.defaults()
	e := &Engine{
		opts:    opts,
		cat:     catalog.New(),
		exec:    executor.New(opts.EOs),
		reg:     metrics.NewRegistry(),
		streams: make(map[string]*streamState),
		queries: make(map[int]*RunningQuery),
		shared:  make(map[string]*sharedClass),
		arrReg:  arrange.NewRegistry(),
	}
	if opts.SpoolDir != "" {
		e.pool = storage.NewBufferPool(opts.PoolSegments)
	}
	if opts.TraceSampleRate > 0 {
		e.tracer = metrics.NewTracer(opts.TraceSampleRate, 1, opts.TraceKeep)
		// Mirror every recorded span into the tcq_hop_latency_seconds
		// histogram family; only sampled tuples pay the record.
		e.tracer.ExportHistograms(e.reg)
	}
	e.recycler = tuple.NewPool()
	e.reg.RegisterFunc("tcq_tuple_pool_gets_total", metrics.KindCounter, func() float64 {
		return float64(e.recycler.Stats().Gets)
	})
	e.reg.RegisterFunc("tcq_tuple_pool_hits_total", metrics.KindCounter, func() float64 {
		return float64(e.recycler.Stats().Hits)
	})
	e.reg.RegisterFunc("tcq_tuple_pool_puts_total", metrics.KindCounter, func() float64 {
		return float64(e.recycler.Stats().Puts)
	})
	e.reg.RegisterFunc("tcq_tuple_pool_drops_total", metrics.KindCounter, func() float64 {
		return float64(e.recycler.Stats().Drops)
	})
	e.reg.RegisterFunc("tcq_arrangement_count", metrics.KindGauge, func() float64 {
		n, _, _, _ := e.arrReg.Totals()
		return float64(n)
	})
	e.reg.RegisterFunc("tcq_arrangement_readers", metrics.KindGauge, func() float64 {
		_, readers, _, _ := e.arrReg.Totals()
		return float64(readers)
	})
	e.reg.RegisterFunc("tcq_arrangement_epoch_lag_max", metrics.KindGauge, func() float64 {
		_, _, lag, _ := e.arrReg.Totals()
		return float64(lag)
	})
	e.reg.RegisterFunc("tcq_arrangement_reclaimed_bytes_total", metrics.KindCounter, func() float64 {
		_, _, _, bytes := e.arrReg.Totals()
		return float64(bytes)
	})
	e.reg.RegisterFunc("tcq_engine_workers", metrics.KindGauge, func() float64 {
		return float64(opts.Workers)
	})
	e.reg.RegisterFunc("tcq_engine_batch_size", metrics.KindGauge, func() float64 {
		return float64(opts.BatchSize)
	})
	e.reg.RegisterFunc("tcq_engine_streams", metrics.KindGauge, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.streams))
	})
	e.reg.RegisterFunc("tcq_engine_queries", metrics.KindGauge, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.queries))
	})
	if opts.Introspect {
		e.intro = newIntrospector(e)
		e.intro.start()
	}
	return e
}

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Options returns the engine's effective (defaulted) configuration.
func (e *Engine) Options() Options { return e.opts }

// Metrics exposes the engine's metric registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Traces returns the recorded lineage traces for a standing query (its
// private eddy's, or its stream's shared class when it runs inside one).
func (e *Engine) Traces(qid int) ([]*metrics.Trace, error) {
	if e.tracer == nil {
		return nil, fmt.Errorf("core: tracing disabled (set TraceSampleRate)")
	}
	e.mu.Lock()
	q, ok := e.queries[qid]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: query %d not found", qid)
	}
	return e.tracer.Recent(q.label), nil
}

// CreateStream registers a stream. timeCol is the schema column carrying
// the application timestamp (-1 for arrival order). Names under the
// reserved "tcq." prefix belong to the introspection subsystem.
func (e *Engine) CreateStream(name string, schema *tuple.Schema, timeCol int) error {
	if strings.HasPrefix(name, introspect.Prefix) {
		return fmt.Errorf("core: stream prefix %q is reserved for introspection streams", introspect.Prefix)
	}
	entry, err := e.cat.CreateStream(name, schema, timeCol)
	if err != nil {
		return err
	}
	return e.addStreamState(entry, false)
}

// createIntrospectStream registers one system stream, bypassing the
// reserved-prefix guard. Introspection streams never spool (telemetry on
// disk outlives its usefulness) and retain a small in-memory history.
func (e *Engine) createIntrospectStream(name string, schema *tuple.Schema) error {
	entry, err := e.cat.CreateStream(name, schema, 0)
	if err != nil {
		return err
	}
	return e.addStreamState(entry, true)
}

// CreateTable registers a static table; its contents arrive via Feed.
func (e *Engine) CreateTable(name string, schema *tuple.Schema) error {
	if strings.HasPrefix(name, introspect.Prefix) {
		return fmt.Errorf("core: stream prefix %q is reserved for introspection streams", introspect.Prefix)
	}
	entry, err := e.cat.CreateTable(name, schema)
	if err != nil {
		return err
	}
	return e.addStreamState(entry, false)
}

func (e *Engine) addStreamState(entry *catalog.Entry, system bool) error {
	st := &streamState{
		entry:   entry,
		subs:    make(map[int]*fjord.Conn),
		histCap: 1 << 20,
	}
	if system {
		st.histCap = 1 << 13
	}
	if e.opts.SpoolDir != "" && !system {
		store, err := storage.NewSegmentStore(e.opts.SpoolDir, entry.Name, e.opts.SegmentSize, e.pool)
		if err != nil {
			return err
		}
		st.store = store
	}
	lbl := fmt.Sprintf(`{stream=%q}`, entry.Name)
	st.fed = e.reg.Counter("tcq_ingress_tuples_total" + lbl)
	// Queue depth and shed counts aggregate across every subscriber of the
	// stream; computed at scrape time so Feed pays nothing for them.
	e.reg.RegisterFunc("tcq_ingress_queue_depth"+lbl, metrics.KindGauge, func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		depth := 0
		for _, c := range st.subs {
			depth += c.Q.Len()
		}
		return float64(depth)
	})
	e.reg.RegisterFunc("tcq_ingress_shed_total"+lbl, metrics.KindCounter, func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		var shed int64
		for _, c := range st.subs {
			_, dropped := c.Q.Stats()
			shed += dropped
		}
		return float64(shed)
	})
	e.mu.Lock()
	e.streams[entry.Name] = st
	e.mu.Unlock()
	return nil
}

func (e *Engine) stream(name string) (*streamState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.streams[name]
	if !ok {
		return nil, fmt.Errorf("core: stream %q not found", name)
	}
	return st, nil
}

// Feed delivers one tuple into a stream: it is stamped, recorded in the
// stream's history (spool or memory), and fanned out to every standing
// query's input queue.
func (e *Engine) Feed(stream string, t *tuple.Tuple) error {
	one := [1]*tuple.Tuple{t}
	return e.FeedMany(stream, one[:])
}

// FeedMany delivers a batch: the tuples are stamped and recorded under one
// history lock acquisition and fanned out to each subscriber queue in one
// batched push, preserving order.
func (e *Engine) FeedMany(stream string, ts []*tuple.Tuple) error {
	return e.feedMany(stream, ts, e.opts.Shed)
}

// feedMany is FeedMany with an explicit shed decision: the introspection
// collector always feeds non-blocking (shed=true) so a slow telemetry
// subscriber can never back-pressure the engine's own collector.
func (e *Engine) feedMany(stream string, ts []*tuple.Tuple, shed bool) error {
	if len(ts) == 0 {
		return nil
	}
	st, err := e.stream(stream)
	if err != nil {
		return err
	}
	st.mu.Lock()
	tc := st.entry.TimeCol
	for _, t := range ts {
		st.seq++
		t.Seq = st.seq
		if tc >= 0 && tc < len(t.Vals) {
			t.TS = t.Vals[tc].AsInt()
		} else {
			t.TS = t.Seq
		}
		if st.store != nil {
			if err := st.store.Append(t); err != nil {
				st.mu.Unlock()
				return err
			}
		} else if len(st.history) < st.histCap {
			st.history = append(st.history, t)
		}
	}
	// Snapshot the subscribers into a stack array: a make sized by the map
	// escapes, one allocation per Feed. Only past eight does append move to
	// the heap.
	var snap [8]*fjord.Conn
	subs := snap[:0]
	for _, c := range st.subs {
		subs = append(subs, c)
	}
	st.mu.Unlock()
	st.fed.Add(int64(len(ts)))

	for _, c := range subs {
		if shed {
			// QoS mode: never stall the producer; the queue counts
			// the shed tuples (§4.3 "deciding what work to drop when
			// the system is in danger of falling behind").
			for _, t := range ts {
				if clone := t.CloneUsing(e.recycler); !c.Q.Push(clone) && e.recycler != nil {
					e.recycler.Put(clone)
				}
			}
			continue
		}
		// Default: back-pressure the producer rather than drop,
		// matching the pull-queue modality on the ingestion side.
		if len(ts) == 1 {
			c.Q.PushWait(ts[0].CloneUsing(e.recycler))
			continue
		}
		clones := make([]*tuple.Tuple, len(ts))
		for i, t := range ts {
			clones[i] = t.CloneUsing(e.recycler)
		}
		n := c.Q.PushWaitMany(clones)
		if e.recycler != nil {
			// Short only when the queue closed mid-batch; reclaim the rest.
			for _, cl := range clones[n:] {
				e.recycler.Put(cl)
			}
		}
	}
	return nil
}

// AttachSource pumps an ingress source into a stream until the source
// ends. A reader goroutine pulls tuples one at a time (Source.Next is
// inherently per-tuple and may block); a feeder goroutine takes one tuple,
// then greedily drains whatever else is already pending — up to BatchSize
// — into a single FeedMany call. Trickling sources keep per-tuple latency;
// saturated sources amortize the stamp/fan-out locks across the batch. It
// returns a wait function.
func (e *Engine) AttachSource(stream string, src ingress.Source) (wait func() error, err error) {
	if _, err := e.stream(stream); err != nil {
		return nil, err
	}
	errc := make(chan error, 1)
	readErr := make(chan error, 1)
	tc := make(chan *tuple.Tuple, e.opts.BatchSize)
	done := make(chan struct{})
	go func() {
		defer close(tc)
		// finish releases the source exactly once per return path; a
		// close failure surfaces through the wait function rather than
		// being dropped.
		finish := func(err error) {
			if cerr := src.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			readErr <- err
		}
		for {
			t, err := src.Next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				finish(err)
				return
			}
			select {
			case tc <- t:
			case <-done:
				finish(nil)
				return
			}
		}
	}()
	go func() {
		buf := make([]*tuple.Tuple, 0, e.opts.BatchSize)
		for t := range tc {
			buf = append(buf[:0], t)
		fill:
			for len(buf) < cap(buf) {
				select {
				case t2, ok := <-tc:
					if !ok {
						break fill
					}
					buf = append(buf, t2)
				default:
					break fill
				}
			}
			if err := e.FeedMany(stream, buf); err != nil {
				close(done)
				errc <- err
				return
			}
		}
		errc <- <-readErr
	}()
	return func() error { return <-errc }, nil
}

// history returns the retained tuples of a stream in [left, right].
func (st *streamState) historyRange(left, right int64) ([]*tuple.Tuple, error) {
	if st.store != nil {
		return st.store.ScanRange(left, right)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*tuple.Tuple
	for _, t := range st.history {
		if t.TS >= left && t.TS <= right {
			out = append(out, t)
		}
	}
	return out, nil
}

// Stop shuts the engine down.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	intro := e.intro
	e.mu.Unlock()
	// Quiesce the collector before tearing queries down so no tick races
	// query deregistration.
	if intro != nil {
		intro.stopSampler()
	}
	e.mu.Lock()
	qs := make([]*RunningQuery, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	scs := make([]*sharedClass, 0, len(e.shared))
	for _, sc := range e.shared {
		scs = append(scs, sc)
	}
	e.mu.Unlock()
	for _, q := range qs {
		// Shutdown fast path: skip per-query removal from shared classes.
		// Each RemoveQuery pays O(class members) to splice delivery lists
		// and grouped-filter bounds — quadratic across a teardown of many
		// overlapping CQs — and the classes are dropped wholesale below
		// anyway.
		e.deregister(q, false)
	}
	for _, sc := range scs {
		sc.close()
		e.arrReg.Drop(sc.key)
	}
	e.exec.Stop()
}

// Queries returns the ids of standing queries.
func (e *Engine) Queries() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	return out
}

// Register parses, binds, and schedules a continuous query, returning its
// handle. The query begins consuming data immediately.
func (e *Engine) Register(text string) (*RunningQuery, error) {
	plan, err := sql.ParseAndBind(text, e.cat)
	if err != nil {
		return nil, err
	}
	return e.RegisterPlan(plan)
}

// Query returns the running query with the given id, if registered.
// Queries are engine entities, not session state: any connection may
// attach a cursor to one (the proxy relies on this to resume after a
// reconnect).
func (e *Engine) Query(id int) (*RunningQuery, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[id]
	return q, ok
}

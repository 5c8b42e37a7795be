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
// SteMs, routed by the one rule in routing.go; a selection class runs as a
// batch pipeline over worker shards when Options.Workers > 1); windowed
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
	// latency, retrievable via Engine.Traces / the TRACE wire command. A
	// sampled tuple travels through the eddy as a batch of one, through the
	// same module code as the rest.
	TraceSampleRate float64
	// Clock supplies engine-internal timing (trace hop latency, window
	// fire latency). nil defaults to the real clock; tests inject a
	// virtual clock for deterministic runs.
	Clock chaos.Clock
	// Workers selects intra-process parallel execution for selection
	// classes only: a class with one FROM position runs Workers shard
	// copies of its grouped filters as a batch pipeline, each drained batch
	// going whole to the next shard in turn and a merge stage delivering
	// the results in batch order, the order Workers 1 delivers in. Join
	// classes run sequentially at any Workers. 1 (the default) runs every
	// eddy inline on its dispatch unit. The trade-off: a selection class
	// with many members gains throughput for a little latency and the
	// shards' memory.
	Workers int
	// BatchSize is the tuple-batch granularity of the whole dataflow:
	// ingress fan-out, each runtime's input drain and eddy entry (so also
	// the batches a selection class hands its worker shards) move up to
	// BatchSize tuples per operation (default 64). BatchSize 1 degenerates
	// to per-tuple processing with identical output sequences.
	BatchSize int
	// Introspect registers the engine's telemetry streams (tcq.stats,
	// tcq.routes, tcq.pool, tcq.chaos) as ordinary catalog sources fed by a
	// background collector, so continuous queries can run over the engine's
	// own runtime state. Idle introspection (streams registered, nobody
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
	// hist retains tuples' values in memory when spooling is off (nil with
	// a store), the newest histCap rows, so late-registered queries can
	// still see old data (PSoup semantics). It is an encoded log: it keeps
	// no fed tuple.
	hist    *storage.Log
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
	}
	if opts.SpoolDir != "" {
		e.pool = storage.NewBufferPool(opts.PoolSegments)
	}
	if opts.TraceSampleRate > 0 {
		e.tracer = metrics.NewTracer(opts.TraceSampleRate, 1, 0)
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
		return float64(e.arrangementTotals().count)
	})
	e.reg.RegisterFunc("tcq_arrangement_readers", metrics.KindGauge, func() float64 {
		return float64(e.arrangementTotals().readers)
	})
	e.reg.RegisterFunc("tcq_arrangement_bytes", metrics.KindGauge, func() float64 {
		return float64(e.arrangementTotals().bytes)
	})
	e.reg.RegisterFunc("tcq_arrangement_reclaimed_bytes_total", metrics.KindCounter, func() float64 {
		return float64(e.arrangementTotals().reclaimedBytes)
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
// class's eddy for a member, its own for a windowed query).
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
		entry: entry,
		subs:  make(map[int]*fjord.Conn),
	}
	lbl := fmt.Sprintf(`{stream=%q}`, entry.Name)
	if e.opts.SpoolDir != "" && !system {
		store, err := storage.NewSegmentStore(e.opts.SpoolDir, entry.Name, e.opts.SegmentSize, e.pool)
		if err != nil {
			return err
		}
		st.store = store
	} else {
		st.hist, st.histCap = storage.NewLog(4<<10), 1<<20
		if system {
			st.histCap = 1 << 13
		}
		// What the history holds, read from the log at scrape time.
		e.reg.RegisterFunc("tcq_stream_history_rows"+lbl, metrics.KindGauge, func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			return float64(st.hist.Len())
		})
		e.reg.RegisterFunc("tcq_stream_history_bytes"+lbl, metrics.KindGauge, func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			return float64(st.hist.Bytes())
		})
	}
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
	return e.streamLocked(name)
}

// streamLocked is stream with e.mu held.
func (e *Engine) streamLocked(name string) (*streamState, error) {
	st, ok := e.streams[name]
	if !ok {
		return nil, fmt.Errorf("core: stream %q not found", name)
	}
	return st, nil
}

// Feed delivers one tuple into a stream: it is stamped, its values are
// recorded in the stream's history (spool or memory), and a copy of it is
// fanned out to every standing query's input queue. The engine keeps no
// reference to t: the caller may reuse it, or return it to TuplePool, once
// Feed returns.
func (e *Engine) Feed(stream string, t *tuple.Tuple) error {
	one := [1]*tuple.Tuple{t}
	_, err := e.FeedMany(stream, one[:])
	return err
}

// FeedMany delivers a batch: the tuples are stamped and recorded under one
// history lock acquisition and fanned out to each subscriber queue in one
// batched push, preserving order. It returns how many tuples it fed: all of
// them, or, with an error, fewer. When spooling tuple k fails, tuples
// 0…k−1 are fed like any others and k comes back with the error. Like
// Feed, it keeps none of ts: the caller may reuse them once it returns.
func (e *Engine) FeedMany(stream string, ts []*tuple.Tuple) (int, error) {
	return e.feedMany(stream, ts, e.opts.Shed)
}

// feedMany is FeedMany with an explicit shed decision: the introspection
// collector always feeds non-blocking (shed=true) so a slow telemetry
// subscriber can never back-pressure the engine's own collector.
func (e *Engine) feedMany(stream string, ts []*tuple.Tuple, shed bool) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	st, err := e.stream(stream)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	tc := st.entry.TimeCol
	for i, t := range ts {
		st.seq++
		t.Seq = st.seq
		if tc >= 0 && tc < len(t.Vals) {
			t.TS = t.Vals[tc].AsInt()
		} else {
			t.TS = t.Seq
		}
		if st.store != nil {
			if err = st.store.Append(t); err != nil {
				ts = ts[:i] // the spooled prefix is fed all the same
				break
			}
		} else {
			st.hist.Append(t)
		}
	}
	if st.store == nil && st.hist.Len() > st.histCap {
		// Past the cap the oldest rows age out: a query registered later
		// sees the newest histCap rows.
		st.hist.TruncateFront(st.hist.Start() + int64(st.hist.Len()-st.histCap))
	}
	// Snapshot the subscribers into a stack array: a make sized by the map
	// escapes, one allocation per Feed. Only past eight does append move to
	// the heap.
	var snap [8]*fjord.Conn
	subs := snap[:0]
	if len(ts) > 0 {
		for _, c := range st.subs {
			subs = append(subs, c)
		}
	}
	st.mu.Unlock()
	st.fed.Add(int64(len(ts)))

	// Each subscriber's clones come from the pool fanOut at a time, into a
	// stack buffer: one pool lock and one queue lock per chunk, and no
	// allocation per call.
	var buf [fanOut]*tuple.Tuple
	for _, c := range subs {
		if c.Q.Closed() {
			// A consumer that has ended (a windowed loop past its last
			// instance) is leaving the stream: clone nothing for it.
			continue
		}
		for rest := ts; len(rest) > 0; {
			run := buf[:min(len(rest), fanOut)]
			e.recycler.CloneMany(run, rest[:len(run)])
			rest = rest[len(run):]
			var n int
			if shed {
				// QoS mode: never stall the producer; the queue counts
				// the shed tuples (§4.3 "deciding what work to drop when
				// the system is in danger of falling behind").
				n = c.Q.PushMany(run)
			} else {
				// Default: back-pressure the producer rather than drop,
				// matching the pull-queue modality on the ingestion side.
				n = c.Q.PushWaitMany(run)
			}
			for _, cl := range run[n:] { // shed, or the queue closed
				e.recycler.Put(cl)
			}
		}
	}
	return len(ts), err
}

// fanOut is how many subscriber clones feedMany takes from the pool and
// pushes at a time.
const fanOut = 64

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
			if _, err := e.FeedMany(stream, buf); err != nil {
				close(done)
				errc <- err
				return
			}
		}
		errc <- <-readErr
	}()
	return func() error { return <-errc }, nil
}

// historyRange returns the retained tuples of a stream in [left, right],
// decoded into fresh copies. The in-memory log is decoded under st.mu from
// its oldest held row: feeders age rows out of its front, and a chunk they
// retire is written over by the next one opened.
func (st *streamState) historyRange(left, right int64) ([]*tuple.Tuple, error) {
	if st.store != nil {
		return st.store.ScanRange(left, right)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hist.Decode(st.hist.Locate(st.hist.Start(), storage.Mark{}), left, right)
}

// TuplePool returns the engine's tuple recycler. A caller that feeds a
// tuple drawn from it may Put it back once Feed returns: the engine keeps
// none of a fed tuple.
func (e *Engine) TuplePool() *tuple.Pool { return e.recycler }

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
		if e.retireLocked(sc, false) {
			scs = append(scs, sc)
		}
	}
	e.mu.Unlock()
	for _, q := range qs {
		// Shutdown fast path: skip per-query removal from shared classes.
		// Each RemoveQuery pays O(class members) to splice delivery lists
		// and grouped-filter bounds — quadratic across a teardown of many
		// overlapping CQs — and the classes retired wholesale above.
		e.deregister(q, false)
	}
	for _, sc := range scs {
		sc.close()
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

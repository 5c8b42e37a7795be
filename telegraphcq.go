// Package telegraphcq is a Go implementation of TelegraphCQ
// (Chandrasekaran et al., CIDR 2003): a shared, continuously adaptive
// processor for continuous queries over data streams. The engine combines
// eddies (adaptive per-tuple routing), SteMs (state modules forming
// adaptive symmetric joins), grouped filters (shared selections across
// many standing queries), PSoup-style materialized results for
// disconnected clients, Flux (partition-parallel dataflow with online
// load balancing and failover), and the paper's for-loop window semantics
// over logical or physical time.
//
// Quick start:
//
//	db := telegraphcq.Open(telegraphcq.Config{})
//	defer db.Close()
//	db.MustCreateStream("quotes", "ts TIME, sym STRING, price FLOAT", "ts")
//	q, _ := db.Register(`SELECT price FROM quotes WHERE sym = 'MSFT'`)
//	rows := q.Subscribe(64)
//	db.Feed("quotes", 1, "MSFT", 57.25)
//	r := <-rows
//	fmt.Println(r.Float(0))
//
// The deeper machinery lives in internal/ packages; this package is the
// stable surface a downstream application uses. Serving the engine over
// TCP (the PostgreSQL-style postmaster/front-end architecture) is exposed
// via Serve and DialClient.
package telegraphcq

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"telegraphcq/internal/core"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/server"
	"telegraphcq/internal/tuple"
)

// Config tunes the engine.
type Config struct {
	// ExecutionObjects is the scheduler thread count (default 2).
	ExecutionObjects int
	// SpoolDir enables disk spooling of stream history when set.
	SpoolDir string
	// TraceSampleRate enables tuple-lineage tracing: each tuple entering
	// an eddy is sampled with this probability (0 disables, 1 traces all)
	// and its module-visit path recorded with per-hop latency. Retrieve
	// traces with Query.Traces or the TRACE wire command.
	TraceSampleRate float64
	// BatchSize is the tuple-batch granularity of the dataflow: ingress
	// fan-out, query input drains, eddy routing, and the batches a
	// selection class hands its worker shards move up to BatchSize tuples
	// per operation (default 64).
	// BatchSize 1 degenerates to per-tuple processing with identical
	// output sequences — larger values trade a little latency for
	// amortized locking and routing on saturated streams.
	BatchSize int
	// Workers > 1 runs selection classes only (one FROM stream) on worker
	// shards: whole drained batches in turn, merged back in arrival order.
	// Joins are sequential at any Workers; the default 1 keeps every query
	// on the sequential path.
	Workers int
}

// DB is an embedded TelegraphCQ engine.
type DB struct {
	engine *core.Engine
}

// Open starts an engine.
func Open(cfg Config) *DB {
	return &DB{engine: core.NewEngine(core.Options{
		EOs:             cfg.ExecutionObjects,
		SpoolDir:        cfg.SpoolDir,
		TraceSampleRate: cfg.TraceSampleRate,
		BatchSize:       cfg.BatchSize,
		Workers:         cfg.Workers,
	})}
}

// Close shuts the engine down.
func (db *DB) Close() { db.engine.Stop() }

// Metrics exposes the engine's metric registry: counters, gauges, and
// latency histograms for every subsystem, exportable in Prometheus text
// format via its WritePrometheus method (or served with metrics.Handler).
func (db *DB) Metrics() *metrics.Registry { return db.engine.Metrics() }

// CreateStream declares a stream from a column spec like
// "ts TIME, sym STRING, price FLOAT". timeCol names the column carrying
// the stream's timestamp ("" uses arrival order — logical time).
func (db *DB) CreateStream(name, colSpec, timeCol string) error {
	schema, err := parseColSpec(name, colSpec)
	if err != nil {
		return err
	}
	tc := -1
	if timeCol != "" {
		tc = schema.ColumnIndex(timeCol)
		if tc < 0 {
			return fmt.Errorf("telegraphcq: time column %q not in schema", timeCol)
		}
	}
	return db.engine.CreateStream(name, schema, tc)
}

// MustCreateStream is CreateStream, panicking on error (setup code).
func (db *DB) MustCreateStream(name, colSpec, timeCol string) {
	if err := db.CreateStream(name, colSpec, timeCol); err != nil {
		panic(err)
	}
}

// CreateTable declares a static table.
func (db *DB) CreateTable(name, colSpec string) error {
	schema, err := parseColSpec(name, colSpec)
	if err != nil {
		return err
	}
	return db.engine.CreateTable(name, schema)
}

func parseColSpec(relation, colSpec string) (*tuple.Schema, error) {
	var cols []tuple.Column
	for _, part := range strings.Split(colSpec, ",") {
		fs := strings.Fields(strings.TrimSpace(part))
		if len(fs) != 2 {
			return nil, fmt.Errorf("telegraphcq: bad column spec %q", part)
		}
		kind, err := parseKind(fs[1])
		if err != nil {
			return nil, err
		}
		cols = append(cols, tuple.Column{Name: fs[0], Kind: kind})
	}
	return tuple.NewSchema(relation, cols...), nil
}

func parseKind(s string) (tuple.Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "BIGINT", "LONG":
		return tuple.KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return tuple.KindFloat, nil
	case "STRING", "TEXT", "CHAR", "VARCHAR":
		return tuple.KindString, nil
	case "BOOL", "BOOLEAN":
		return tuple.KindBool, nil
	case "TIME", "TIMESTAMP":
		return tuple.KindTime, nil
	default:
		return 0, fmt.Errorf("telegraphcq: unknown column type %q", s)
	}
}

// Feed delivers one tuple into a stream; values must match the schema
// positionally. Supported Go types: int/int64, float64, string, bool. The
// row is drawn from the engine's tuple pool and put back once the engine's
// Feed returns, which keeps none of it, so a steady stream of Feed calls
// allocates no row.
func (db *DB) Feed(stream string, values ...interface{}) error {
	entry, err := db.engine.Catalog().Lookup(stream)
	if err != nil {
		return err
	}
	if len(values) != entry.Schema.Arity() {
		return fmt.Errorf("telegraphcq: %s wants %d values, got %d",
			stream, entry.Schema.Arity(), len(values))
	}
	pool := db.engine.TuplePool()
	t := pool.Get(len(values))
	for i, v := range values {
		tv, err := toValue(v, entry.Schema.Columns[i].Kind)
		if err != nil {
			pool.Put(t)
			return fmt.Errorf("telegraphcq: column %s: %w", entry.Schema.Columns[i].Name, err)
		}
		t.Vals[i] = tv
	}
	err = db.engine.Feed(stream, t)
	pool.Put(t)
	return err
}

func toValue(v interface{}, kind tuple.Kind) (tuple.Value, error) {
	switch x := v.(type) {
	case nil:
		return tuple.Null, nil
	case int:
		return numValue(float64(x), int64(x), kind)
	case int64:
		return numValue(float64(x), x, kind)
	case float64:
		return numValue(x, int64(x), kind)
	case string:
		if kind != tuple.KindString {
			return tuple.Null, fmt.Errorf("string given for %s column", kind)
		}
		return tuple.String_(x), nil
	case bool:
		if kind != tuple.KindBool {
			return tuple.Null, fmt.Errorf("bool given for %s column", kind)
		}
		return tuple.Bool(x), nil
	default:
		return tuple.Null, fmt.Errorf("unsupported value type %T", v)
	}
}

func numValue(f float64, i int64, kind tuple.Kind) (tuple.Value, error) {
	switch kind {
	case tuple.KindFloat:
		return tuple.Float(f), nil
	case tuple.KindInt, tuple.KindTime:
		return tuple.Value{K: kind, I: i}, nil
	default:
		return tuple.Null, fmt.Errorf("numeric value given for %s column", kind)
	}
}

// FeedCSV delivers one comma-separated row.
func (db *DB) FeedCSV(stream, line string) error {
	entry, err := db.engine.Catalog().Lookup(stream)
	if err != nil {
		return err
	}
	t, err := ingress.ParseCSV(entry.Schema, line)
	if err != nil {
		return err
	}
	return db.engine.Feed(stream, t)
}

// Row is one query result.
type Row struct {
	// T is the window-instance tag (the for-loop variable's value) for
	// windowed queries; 0ish arrival info otherwise.
	T    int64
	vals []tuple.Value
}

// Len returns the column count.
func (r Row) Len() int { return len(r.vals) }

// Int returns column i as int64.
func (r Row) Int(i int) int64 { return r.vals[i].AsInt() }

// Float returns column i as float64.
func (r Row) Float(i int) float64 { return r.vals[i].AsFloat() }

// String_ returns column i as a string value.
func (r Row) String_(i int) string { return r.vals[i].String() }

// String renders the whole row as CSV.
func (r Row) String() string {
	parts := make([]string, len(r.vals))
	for i, v := range r.vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

func toRow(t *tuple.Tuple) Row { return Row{T: t.TS, vals: t.Vals} }

// Query is a standing continuous query.
type Query struct {
	db    *DB
	inner *core.RunningQuery

	subMu sync.Mutex
	subs  map[<-chan Row]int // Subscribe's channels, for Unsubscribe
}

// ID returns the engine-assigned query id.
func (q *Query) ID() int { return q.inner.ID }

// Register parses and starts a continuous query. The dialect is
// SELECT-FROM-WHERE (conjunctive predicates, equality and theta joins,
// COUNT/SUM/AVG/MIN/MAX with GROUP BY) plus the paper's for-loop window
// clause:
//
//	SELECT AVG(price) FROM quotes WHERE sym = 'MSFT'
//	for (t = 50; t < 70; t++) { WindowIs(quotes, t - 4, t); }
func (db *DB) Register(sqlText string) (*Query, error) {
	rq, err := db.engine.Register(sqlText)
	if err != nil {
		return nil, err
	}
	return &Query{db: db, inner: rq}, nil
}

// Subscribe returns a channel streaming results as they are produced
// (push egress). Its reader follows the query's result log, which holds
// the last 65,536 results: a slow consumer holds up only its own channel,
// never the engine, and misses rows only when the log ages them out before
// they are sent (counted in tcq_egress_push_dropped_total). The channel
// closes once the query has ended and its last rows are sent, on
// Unsubscribe, or when the DB closes. A consumer that stops reading before
// then calls Unsubscribe to end its reader.
func (q *Query) Subscribe(buffer int) <-chan Row {
	q.subMu.Lock()
	defer q.subMu.Unlock()
	if q.subs == nil {
		q.subs = make(map[<-chan Row]int)
	}
	// The reader's exit waits on subMu, so it finds ch registered.
	var ch <-chan Row
	id, ch := core.SubscribeAs(q.inner, buffer, func(t *tuple.Tuple) Row {
		return Row{T: t.TS, vals: slices.Clone(t.Vals)}
	}, func() {
		q.subMu.Lock()
		delete(q.subs, ch)
		q.subMu.Unlock()
	})
	q.subs[ch] = id
	return ch
}

// Unsubscribe ends the reader behind a channel Subscribe returned: the
// channel is closed when Unsubscribe returns, and rows not yet sent on it
// are not delivered.
func (q *Query) Unsubscribe(rows <-chan Row) {
	q.subMu.Lock()
	id, ok := q.subs[rows]
	delete(q.subs, rows)
	q.subMu.Unlock()
	if ok {
		q.inner.Unsubscribe(id)
	}
}

// decodeRows decodes an encoded run into Rows that share one values array:
// three allocations however many rows it holds (the Rows, the values and
// the tuple enc.Each decodes into), plus one per string value.
func decodeRows(enc egress.Encoded) ([]Row, error) {
	rows := make([]Row, 0, enc.Rows)
	vals := make([]tuple.Value, 0, enc.Vals)
	t := tuple.Tuple{Vals: vals}
	err := enc.Each(&t, func(t *tuple.Tuple) bool {
		rows = append(rows, toRow(t))
		n := min(len(t.Vals), cap(vals)) // the row's values, at vals' front
		vals = vals[n:n]
		t.Vals = vals
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Cursor opens a pull cursor replaying all retained results (PSoup-style
// disconnected retrieval).
func (q *Query) Cursor() *Cursor {
	return &Cursor{q: q, id: q.inner.Cursor()}
}

// Cursor fetches results on demand.
type Cursor struct {
	q  *Query
	id int

	mu  sync.Mutex
	buf []byte // the encoded rows of the last Fetch, reused by the next
}

// Fetch returns the results accumulated since the previous Fetch. However
// many rows it returns, it allocates two arrays, the rows and every value
// they hold, and one scratch tuple, plus one string per string value.
func (c *Cursor) Fetch() ([]Row, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, err := c.q.inner.FetchEncoded(c.id, c.buf[:0])
	c.buf = enc.Buf
	if err != nil {
		return nil, err
	}
	return decodeRows(enc)
}

// Results returns the lifetime result count.
func (q *Query) Results() int64 { return q.inner.Results() }

// Done reports whether a finite (snapshot/bounded) query has completed.
func (q *Query) Done() bool { return q.inner.Done() }

// Wait blocks until a finite query completes.
func (q *Query) Wait() { q.inner.Wait() }

// Deregister removes the standing query.
func (q *Query) Deregister() error { return q.db.engine.Deregister(q.inner.ID) }

// Traces returns the query's recorded tuple-lineage traces (requires
// Config.TraceSampleRate > 0): each trace lists the modules a sampled
// tuple visited, with per-hop latency and the routing outcome.
func (q *Query) Traces() ([]*metrics.Trace, error) {
	return q.db.engine.Traces(q.inner.ID)
}

// Server is a TCP postmaster serving this engine.
type Server struct {
	pm *server.Postmaster
}

// Serve starts a postmaster for the engine on addr ("127.0.0.1:0" picks a
// free port).
func (db *DB) Serve(addr string) (*Server, error) {
	pm, err := server.Listen(db.engine, addr)
	if err != nil {
		return nil, err
	}
	return &Server{pm: pm}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.pm.Addr() }

// Close stops the server.
func (s *Server) Close() error { return s.pm.Close() }

// Client is a remote connection to a TelegraphCQ server.
type Client = server.Client

// DialClient connects to a server (or proxy).
func DialClient(addr string) (*Client, error) { return server.Dial(addr) }

// NewProxy starts a cursor-multiplexing proxy in front of serverAddr.
func NewProxy(serverAddr, listenAddr string) (*server.Proxy, error) {
	return server.NewProxy(serverAddr, listenAddr)
}

// PriorityQueue delivers a query's results in user-preference order
// rather than arrival order (the Juggle operator of [RRH99], §4.3):
// interesting rows reach the application first, and under overflow the
// LEAST interesting pending rows are shed.
type PriorityQueue struct {
	mu      sync.Mutex
	j       *ops.Juggle
	emitted int64
	shed    int64
}

// SubscribePriority attaches a preference-ordered result buffer to the
// query. priority maps each result row to its interest (higher = sooner);
// at most capacity rows (default 1024) are buffered between Drain calls.
// The buffer is filled by a reader of the query's result log, as
// Subscribe's channel is, so a row reaches it shortly after Results counts
// it. priority runs on that reader under the queue's lock, so it must not
// call the queue's methods.
func (q *Query) SubscribePriority(capacity int, priority func(Row) float64) *PriorityQueue {
	if capacity < 1 {
		capacity = 1024
	}
	pq := &PriorityQueue{j: ops.NewJuggle(capacity, func(t *tuple.Tuple) float64 {
		return priority(toRow(t))
	})}
	var row tuple.Tuple
	q.inner.Follow(q.db.engine.Stopped(), func(enc egress.Encoded) bool {
		return enc.Each(&row, func(t *tuple.Tuple) bool {
			pq.push(t.Clone())
			return true
		}) == nil
	}, nil)
	return pq
}

// push buffers one result; when the buffer is full the lowest-priority
// pending row (possibly this one) is shed and counted.
func (pq *PriorityQueue) push(t *tuple.Tuple) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.j.Push(t) != nil {
		pq.shed++
	}
}

// Next returns the highest-priority pending row.
func (pq *PriorityQueue) Next() (Row, bool) {
	pq.mu.Lock()
	t := pq.j.Pop()
	if t != nil {
		pq.emitted++
	}
	pq.mu.Unlock()
	if t == nil {
		return Row{}, false
	}
	return toRow(t), true
}

// Drain returns up to max pending rows in priority order (max <= 0 drains
// everything pending).
func (pq *PriorityQueue) Drain(max int) []Row {
	var rows []Row
	for max <= 0 || len(rows) < max {
		r, ok := pq.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	return rows
}

// Pending returns the number of rows buffered, waiting for Next or Drain.
func (pq *PriorityQueue) Pending() int {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return pq.j.Len()
}

// Stats returns delivered and preference-shed counts.
func (pq *PriorityQueue) Stats() (emitted, shed int64) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return pq.emitted, pq.shed
}

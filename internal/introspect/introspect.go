// Package introspect defines the engine's introspection streams: system-
// generated sources carrying the engine's own telemetry as ordinary tuples,
// so continuous queries can filter, window, and join runtime state exactly
// like application data (dogfooding the adaptivity loop — eddies already
// consume these observations internally; now users can too). The package
// holds the stream schemas, the row representation the collector publishes,
// and a bounded lock-free-ish ring buffer decoupling telemetry producers
// from the ingress feed so an idle or slow subscriber never stalls the hot
// path.
package introspect

import (
	"sync"

	"telegraphcq/internal/tuple"
)

// Introspection stream names. The "tcq." prefix is reserved: user CREATE
// STREAM rejects it, and the SQL parser treats the dot as part of the
// source name.
const (
	// StatsStream carries one row per (query, module) per collector tick:
	// ticket share, selectivity, queue depth, and sampled probe latency.
	StatsStream = "tcq.stats"
	// RoutesStream carries one row per completed sampled tuple trace: the
	// timestamped module-visit path the eddy chose for it.
	RoutesStream = "tcq.routes"
	// PoolStream carries one row per pool per tick: tuple-pool and
	// buffer-pool traffic counters.
	PoolStream = "tcq.pool"
	// ChaosStream carries one row per injected fault event.
	ChaosStream = "tcq.chaos"
	// ArrangeStream carries one row per join class's arrangement per tick:
	// reader count (the class's members), stored rows and the bytes they
	// take, and reclamation volume.
	ArrangeStream = "tcq.arrange"
)

// Prefix is the reserved name prefix for introspection streams.
const Prefix = "tcq."

// StatsSchema returns the tcq.stats schema.
func StatsSchema() *tuple.Schema {
	return tuple.NewSchema(StatsStream,
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "query", Kind: tuple.KindString},
		tuple.Column{Name: "module", Kind: tuple.KindString},
		tuple.Column{Name: "visits", Kind: tuple.KindInt},
		tuple.Column{Name: "produced", Kind: tuple.KindInt},
		tuple.Column{Name: "selectivity", Kind: tuple.KindFloat},
		tuple.Column{Name: "tickets", Kind: tuple.KindInt},
		tuple.Column{Name: "ticket_share", Kind: tuple.KindFloat},
		tuple.Column{Name: "queue_depth", Kind: tuple.KindInt},
		tuple.Column{Name: "probe_ns", Kind: tuple.KindInt},
	)
}

// RoutesSchema returns the tcq.routes schema.
func RoutesSchema() *tuple.Schema {
	return tuple.NewSchema(RoutesStream,
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "tag", Kind: tuple.KindString},
		tuple.Column{Name: "seq", Kind: tuple.KindInt},
		tuple.Column{Name: "emitted", Kind: tuple.KindBool},
		tuple.Column{Name: "spans", Kind: tuple.KindInt},
		tuple.Column{Name: "latency_ns", Kind: tuple.KindInt},
		tuple.Column{Name: "path", Kind: tuple.KindString},
	)
}

// PoolSchema returns the tcq.pool schema.
func PoolSchema() *tuple.Schema {
	return tuple.NewSchema(PoolStream,
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "pool", Kind: tuple.KindString},
		tuple.Column{Name: "gets", Kind: tuple.KindInt},
		tuple.Column{Name: "hits", Kind: tuple.KindInt},
		tuple.Column{Name: "puts", Kind: tuple.KindInt},
		tuple.Column{Name: "drops", Kind: tuple.KindInt},
	)
}

// ChaosSchema returns the tcq.chaos schema.
func ChaosSchema() *tuple.Schema {
	return tuple.NewSchema(ChaosStream,
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "site", Kind: tuple.KindString},
		tuple.Column{Name: "n", Kind: tuple.KindInt},
		tuple.Column{Name: "fault", Kind: tuple.KindString},
	)
}

// ArrangeSchema returns the tcq.arrange schema.
func ArrangeSchema() *tuple.Schema {
	return tuple.NewSchema(ArrangeStream,
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "class", Kind: tuple.KindString},
		tuple.Column{Name: "arrangement", Kind: tuple.KindString},
		tuple.Column{Name: "readers", Kind: tuple.KindInt},
		tuple.Column{Name: "size", Kind: tuple.KindInt},
		tuple.Column{Name: "bytes", Kind: tuple.KindInt},
		tuple.Column{Name: "reclaimed_tuples", Kind: tuple.KindInt},
		tuple.Column{Name: "reclaimed_bytes", Kind: tuple.KindInt},
	)
}

// Schemas returns every introspection stream's schema, keyed by name.
func Schemas() map[string]*tuple.Schema {
	return map[string]*tuple.Schema{
		StatsStream:   StatsSchema(),
		RoutesStream:  RoutesSchema(),
		PoolStream:    PoolSchema(),
		ChaosStream:   ChaosSchema(),
		ArrangeStream: ArrangeSchema(),
	}
}

// Row is one pending introspection tuple: the target stream, the engine
// timestamp, and the column values (matching the stream's schema order).
type Row struct {
	Stream string
	TS     int64
	Vals   []tuple.Value
}

// Ring is a bounded MPSC buffer between telemetry producers (tracer sink,
// chaos observer — hot-path adjacent goroutines) and the collector that
// drains it into ingress. Publish never blocks: when the ring is full the
// row is dropped and counted, so backpressure on introspection subscribers
// cannot reach the data path.
type Ring struct {
	mu        sync.Mutex
	rows      []Row
	cap       int
	published int64
	dropped   int64
}

// NewRing creates a ring holding at most capacity pending rows
// (values < 1 default to 1024).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1024
	}
	return &Ring{rows: make([]Row, 0, capacity), cap: capacity}
}

// Publish appends a row, dropping it (and counting the drop) when the ring
// is full. It reports whether the row was accepted.
func (r *Ring) Publish(row Row) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) >= r.cap {
		r.dropped++
		return false
	}
	r.rows = append(r.rows, row)
	r.published++
	return true
}

// Drain removes and returns all pending rows in publish order.
func (r *Ring) Drain() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) == 0 {
		return nil
	}
	out := make([]Row, len(r.rows))
	copy(out, r.rows)
	r.rows = r.rows[:0]
	return out
}

// Stats returns the lifetime published and dropped row counts.
func (r *Ring) Stats() (published, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.published, r.dropped
}

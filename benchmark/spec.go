package main

import "fmt"

// refSeconds is the run length the frozen counts below were tuned for on
// the reference 2-core box; it equals run_seconds in BENCHMARK.json. A run
// at --seconds S scales the sat count and the paced duration by S/refSeconds
// and leaves the warm count alone (warm exists to reach the pull egress's
// retention cap, which does not depend on run length).
const refSeconds = 20

// streamDef is one CREATE STREAM.
type streamDef struct {
	name    string
	cols    string // "k INT, v INT, born INT"
	timeCol string
	kinds   []colKind // per column, for CSV and value building
}

type colKind uint8

const (
	colInt colKind = iota
	colCents
)

// workloadSpec is one named workload: its front door, schema, queries and
// frozen sizes. The sizes were tuned once on the seed commit (README,
// "Workloads") and are part of the benchmark's definition: changing one
// starts a new trajectory.
type workloadSpec struct {
	name string
	why  string
	wire bool // true: tcqd over TCP; false: telegraphcq.Open embedded
	push bool // true: results by SUBSCRIBE / Query.Subscribe; false: FETCH / Cursor.Fetch every pollEvery

	streams []streamDef
	queries func(total int) []string

	setups    int     // set-ups per untraced run; setup_s is their median
	warm      int     // warm-phase tuples, not scaled
	sat       int     // sat-phase tuples at refSeconds
	pacedRate float64 // paced-phase tuples/s: at most 0.4 x seed tuples_per_s (README, "Paced rates")

	gen func(seed uint64, idx int) rec
	// ref evaluates the workload's queries over the generated input in
	// plain Go (reference.go).
	ref func(in *input, seed uint64) *expected
	// windowed: result rows are (sym, AVG, MAX(born)) tagged with a window
	// instance, and one latency sample is taken per instance, not per row.
	windowed bool
}

const (
	pollEvery      = 20      // ms between FETCH polls of the pull workloads
	inflightCap    = 4096    // closed loop: unacknowledged FEEDs on the wire
	lateAfterNs    = 1e9     // a paced row later than this counts as lost
	sharedCQs      = 1000    // standing queries of shared_cqs_embedded
	sharedSubs     = 32      // of which this many are subscribed (seed-chosen)
	joinLag        = 1000    // payment for order i arrives this many orders later
	windowSpan     = 1000    // WindowIs(quotes, t-999, t)
	windowStep     = 100     // t += 100
	windowSyms     = 50      // GROUP BY cardinality
	genLagLimitMs  = 5.0     // generator p99 lateness above which a paced phase is invalid
	notPacedOffset = 1 << 40 // born of a warm/sat tuple is idx - notPacedOffset (< 0)
)

var workloads = []workloadSpec{
	{
		name: "filter_push_wire",
		why:  "one filter CQ through tcqd with pipelined FEED and SUBSCRIBE push: the wire, CSV and egress do most of the work; eddy routing is trivial and SteMs absent",
		wire: true, push: true,
		streams: []streamDef{{name: "S", cols: "k INT, v INT, born INT", kinds: []colKind{colInt, colInt, colInt}}},
		queries: func(total int) []string { return []string{"SELECT k, v, born FROM S WHERE v < 500"} },
		setups:  7, warm: 140000, sat: 150000, pacedRate: 5000,
		gen: genFilter,
		ref: func(in *input, _ uint64) *expected { return refFilter(in) },
	},
	{
		name: "join_fetch_wire",
		why:  "unwindowed two-stream equijoin through tcqd with two interleaved FEED streams and FETCH polling: private eddy plus symmetric SteMs whose state grows past cache",
		wire: true, push: false,
		streams: []streamDef{
			{name: "orders", cols: "k INT, v INT, born INT", kinds: []colKind{colInt, colInt, colInt}},
			{name: "pays", cols: "k INT, w INT, born INT", kinds: []colKind{colInt, colInt, colInt}},
		},
		queries: func(total int) []string {
			return []string{"SELECT o.k, o.v, p.w, p.born FROM orders o, pays p WHERE o.k = p.k"}
		},
		setups: 3, warm: 270000, sat: 600000, pacedRate: 20000,
		gen: genJoin,
		ref: func(in *input, _ uint64) *expected { return refJoin(in) },
	},
	{
		name: "shared_cqs_embedded",
		why:  "1,000 standing range CQs on one stream through telegraphcq.Open: CACQ lineage, grouped filters, per-query egress; no wire, CSV or SteM. DB.Feed blocks, so the 5 ms generator-lag rule is wire-only",
		wire: false, push: true,
		streams: []streamDef{{name: "Q", cols: "sym INT, price INT, born INT", kinds: []colKind{colInt, colInt, colInt}}},
		queries: func(total int) []string {
			qs := make([]string, sharedCQs)
			for i := range qs {
				qs[i] = fmt.Sprintf("SELECT sym, price, born FROM Q WHERE price >= %d AND price < %d", i*100, i*100+100)
			}
			return qs
		},
		setups: 9, warm: 50000, sat: 800000, pacedRate: 20000,
		gen: genShared,
		ref: func(in *input, seed uint64) *expected { return refShared(in, chooseSubscribed(seed)) },
	},
	{
		name: "window_agg_embedded",
		why:  "sliding grouped AVG/MAX on in-order timestamps via telegraphcq.Open and Cursor.Fetch: window buffer, aggregator; input-heavy, output-light. DB.Feed blocks, so the 5 ms generator-lag rule is wire-only",
		wire: false, push: false,
		streams: []streamDef{{name: "quotes", cols: "ts TIME, sym INT, price FLOAT, born INT", timeCol: "ts",
			kinds: []colKind{colInt, colInt, colCents, colInt}}},
		queries: func(total int) []string {
			// The loop is bounded at the run's last input. The issue's
			// unbounded form `for (t = 1000; ; t += 100)` cannot be torn
			// down on the seed engine: once Close or Deregister closes the
			// query's inputs, windowRuntime.step fires the "remaining"
			// instances of an endless loop forever and Executor.Stop never
			// returns. Bounded, the plan and every fired instance are the
			// same and teardown ends.
			return []string{fmt.Sprintf("SELECT sym, AVG(price), MAX(born) FROM quotes GROUP BY sym "+
				"for (t = %d; t <= %d; t += %d) { WindowIs(quotes, t - %d, t); }", windowSpan, total, windowStep, windowSpan-1)}
		},
		setups: 7, warm: 140000, sat: 180000, pacedRate: 6000,
		gen:      genWindow,
		ref:      func(in *input, _ uint64) *expected { return refWindow(in, windowSpan, windowStep) },
		windowed: true,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric with its unit and direction; bound is the
// regression bound of an end-to-end metric (0 for per-layer metrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the gated metrics with their starting bounds; -calibrate
// widens each to twice the measured spread, up to the contract's 0.25. The
// issue's starting values for the time-based metrics (0.10 and 0.15) are
// below this box's noise floor (README, "Three things this box forced"), so
// they start at the cap.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"cpu_us_per_tuple", "us", "lower", 0.25},
	{"allocs_per_tuple", "allocs", "lower", 0.05},
	{"alloc_bytes_per_tuple", "B", "lower", 0.05},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	// The join's heap doubles between collector cycles, so where its last
	// cycle falls decides whether the run ends 7% above its live heap or 20%.
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the ungated metrics of the traced run, in print order.
var perLayer = []metricDef{
	{Name: "server.feed_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "server.feed_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "server.fetch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "server.syscalls_per_tuple", Unit: "count", Better: "lower"},
	{Name: "server.push_loss_ratio_sat", Unit: "ratio", Better: "lower"},
	{Name: "ingress.parse_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "ingress.format_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.feed_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.fanout_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.drain_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "core.queue_depth_p99", Unit: "count", Better: "lower"},
	{Name: "core.register_us_per_query", Unit: "us", Better: "lower"},
	{Name: "sql.parse_bind_us_per_query", Unit: "us", Better: "lower"},
	{Name: "tuple.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.widen_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fjord.single_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "fjord.batch_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "executor.step_ns", Unit: "ns", Better: "lower"},
	{Name: "executor.idle_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "eddy.ingest_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "eddy.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "eddy.visits_per_tuple", Unit: "count", Better: "lower"},
	{Name: "eddy.decisions_per_tuple", Unit: "count", Better: "lower"},
	{Name: "stem.build_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stem.probe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stem.bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "gfilter.probe_ns_per_tuple_1q", Unit: "ns", Better: "lower"},
	{Name: "gfilter.probe_ns_per_tuple_1000q", Unit: "ns", Better: "lower"},
	{Name: "cacq.ingest_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "cacq.deliveries_per_tuple", Unit: "count", Better: "lower"},
	{Name: "cacq.add_query_us", Unit: "us", Better: "lower"},
	{Name: "window.add_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "window.range_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "window.evict_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "window.rows_held_max", Unit: "count", Better: "lower"},
	{Name: "window.rows_scanned_per_tuple", Unit: "count", Better: "lower"},
	{Name: "ops.agg_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "egress.push_publish_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "egress.pull_publish_ns_per_row_empty_b64", Unit: "ns", Better: "lower"},
	{Name: "egress.pull_publish_ns_per_row_atcap_b64", Unit: "ns", Better: "lower"},
	{Name: "egress.pull_publish_ns_per_row_atcap_b1", Unit: "ns", Better: "lower"},
	{Name: "egress.pull_fetch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "baseline.hashjoin_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.num_gc", Unit: "count", Better: "lower"},
	{Name: "proc.ctx_switches_per_tuple", Unit: "count", Better: "lower"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.build_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "paced.latency_p50_all_ms", Unit: "ms", Better: "lower"},
	{Name: "paced.latency_p95_all_ms", Unit: "ms", Better: "lower"},
	{Name: "paced.latency_p99_all_ms", Unit: "ms", Better: "lower"},
	{Name: "paced.result_loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sat.slice_spread_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sat.phase_tuples_per_s", Unit: "tuples/s", Better: "higher"},
	{Name: "sat.phase_cpu_us_per_tuple", Unit: "us", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "raw.tuples_per_s", Unit: "tuples/s", Better: "higher"},
	{Name: "raw.cpu_us_per_tuple", Unit: "us", Better: "lower"},
	{Name: "machine.speed_index", Unit: "ratio", Better: "higher"},
	{Name: "machine.calm_wait_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.layer_sum_ratio", Unit: "ratio", Better: "higher"},
}

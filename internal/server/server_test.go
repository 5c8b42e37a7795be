package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/core"
)

func startServer(t *testing.T) (*core.Engine, *Postmaster) {
	t.Helper()
	e := core.NewEngine(core.Options{EOs: 2})
	pm, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pm.Close()
		e.Stop()
	})
	return e, pm
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingAndList(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream("s", "ts TIME, sym STRING, price FLOAT", "ts"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0], "STREAM s") {
		t.Errorf("list = %v", rows)
	}
}

func TestCreateErrors(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x BADTYPE", ""); err == nil {
		t.Error("bad type accepted")
	}
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream("s", "x INT", ""); err == nil {
		t.Error("duplicate stream accepted")
	}
}

// TestE10EndToEnd is experiment E10: the Fig. 4–5 architecture exercised
// over TCP — create streams, register queries dynamically against a
// running executor, feed data through the FEED front door, and receive
// results over both push and pull cursors.
func TestE10EndToEnd(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("stocks", "ts TIME, sym STRING, price FLOAT", "ts"); err != nil {
		t.Fatal(err)
	}

	q1, err := c.Query(`SELECT price FROM stocks WHERE sym = 'MSFT'`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Subscribe(q1, 64)
	if err != nil {
		t.Fatal(err)
	}

	for day := 1; day <= 5; day++ {
		if err := c.Feed("stocks", csvRow(day, "MSFT", float64(day*10))); err != nil {
			t.Fatal(err)
		}
		if err := c.Feed("stocks", csvRow(day, "IBM", 1)); err != nil {
			t.Fatal(err)
		}
	}

	// Push path: five MSFT rows.
	var pushed []string
	timeout := chaos.Real().After(10 * time.Second)
	for len(pushed) < 5 {
		select {
		case row := <-ch:
			pushed = append(pushed, row)
		case <-timeout:
			t.Fatalf("push timed out after %d rows", len(pushed))
		}
	}

	// A second query registered dynamically while the first runs.
	q2, err := c.Query(`SELECT price FROM stocks WHERE sym = 'IBM'`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feed("stocks", csvRow(6, "IBM", 42)); err != nil {
		t.Fatal(err)
	}
	waitRows(t, c, q2, 1)

	// Pull path for q1 sees all five + none of IBM.
	rows, err := c.Fetch(q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("pull rows = %d, want 5", len(rows))
	}

	if err := c.Deregister(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(q1); err == nil {
		t.Error("fetch after deregister succeeded")
	}
}

// TestClientCountsDroppedPushRows: a Subscribe consumer that reads nothing
// while 1,000 results are pushed keeps its channel's four rows, and the
// client counts every other row it had no room for, so buffered + dropped
// accounts for each pushed row.
func TestClientCountsDroppedPushRows(t *testing.T) {
	const n = 1000
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	q, err := c.Query(`SELECT x FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Subscribe(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Feed("s", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool {
		return int64(len(ch))+c.Dropped(q) >= n
	}) {
		t.Fatalf("%d buffered + %d dropped of %d pushed", len(ch), c.Dropped(q), n)
	}
	if len(ch) != 4 || c.Dropped(q) != n-4 {
		t.Errorf("%d buffered + %d dropped, want 4 + %d", len(ch), c.Dropped(q), n-4)
	}
	if d := c.Dropped(q + 1); d != 0 {
		t.Errorf("a query with no subscription counts %d drops", d)
	}
}

func csvRow(ts int, sym string, price float64) string {
	return fmt.Sprintf("%d,%s,%g", ts, sym, price)
}

func waitRows(t *testing.T, c *Client, qid, want int) []string {
	t.Helper()
	var all []string
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool {
		rows, err := c.Fetch(qid)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
		return len(all) >= want
	}) {
		t.Fatalf("got %d rows, want %d", len(all), want)
	}
	return all
}

func TestWindowedQueryOverWire(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("stocks", "ts TIME, sym STRING, price FLOAT", "ts"); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 9; day++ {
		if err := c.Feed("stocks", csvRow(day, "MSFT", float64(day))); err != nil {
			t.Fatal(err)
		}
	}
	qid, err := c.Query(`SELECT price FROM stocks
		for (; t == 0; t = -1) { WindowIs(stocks, 2, 4); }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := waitRows(t, c, qid, 3)
	if len(rows) != 3 {
		t.Errorf("window rows = %v", rows)
	}
}

// TestDisconnectClosesCursors: a connection that fetched from a standing
// query it did not register opened a cursor on it, and takes that cursor
// with it when it goes — the registering connection's stays.
func TestDisconnectClosesCursors(t *testing.T) {
	e, pm := startServer(t)
	owner := dial(t, pm.Addr())
	if err := owner.CreateStream("s", "ts TIME, v INT", "ts"); err != nil {
		t.Fatal(err)
	}
	qid, err := owner.Query("SELECT v FROM s WHERE v > 0")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := e.Query(qid)
	for i := 0; i < 20; i++ {
		c, err := Dial(pm.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Fetch(qid); err != nil {
			t.Fatal(err)
		}
		if n := q.Cursors(); n < 2 {
			t.Fatalf("cycle %d: %d cursors while a second connection fetches", i, n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := chaos.Real().Now().Add(10 * time.Second)
	for q.Cursors() != 1 && chaos.Real().Now().Before(deadline) {
		chaos.Real().Sleep(time.Millisecond)
	}
	if n := q.Cursors(); n != 1 {
		t.Fatalf("%d cursors after 20 connect/FETCH/disconnect cycles, want the owner's 1", n)
	}
	if _, err := owner.Fetch(qid); err != nil {
		t.Fatalf("owner's cursor did not survive: %v", err)
	}
}

func TestProxyMultiplexesCursors(t *testing.T) {
	_, pm := startServer(t)
	proxy, err := NewProxy(pm.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	admin := dial(t, proxy.Addr())
	if err := admin.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}

	// Two downstream clients, each with its own query, one upstream conn.
	c1 := dial(t, proxy.Addr())
	c2 := dial(t, proxy.Addr())
	q1, err := c1.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c2.Query(`SELECT x FROM s WHERE x <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := c1.Subscribe(q1, 16)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := c2.Subscribe(q2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := admin.Feed("s", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(ch <-chan string, want int) int {
		got := 0
		timeout := chaos.Real().After(10 * time.Second)
		for got < want {
			select {
			case <-ch:
				got++
			case <-timeout:
				return got
			}
		}
		return got
	}
	if got := count(ch1, 5); got != 5 {
		t.Errorf("c1 rows = %d", got)
	}
	if got := count(ch2, 5); got != 5 {
		t.Errorf("c2 rows = %d", got)
	}
	// Upstream used exactly one server connection for all of this.
	if pm.Connections() != 1 {
		t.Errorf("server connections = %d, want 1 (proxy multiplexing)", pm.Connections())
	}
}

func TestServerBadCommands(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if _, err := c.cmd("BOGUS"); err == nil {
		t.Error("bogus command accepted")
	}
	if _, err := c.cmd("FETCH 99"); err == nil {
		t.Error("fetch of unknown query accepted")
	}
	if _, err := c.cmd("FEED nosuch 1,2"); err == nil {
		t.Error("feed to unknown stream accepted")
	}
	if _, err := c.Query("garbage"); err == nil {
		t.Error("garbage query accepted")
	}
}

func TestExplain(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("stocks", "ts TIME, sym STRING, price FLOAT", "ts"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Explain(`SELECT price FROM stocks WHERE sym = 'MSFT'
		ORDER BY price DESC LIMIT 3
		for (t = 5; t < 9; t++) { WindowIs(stocks, t - 4, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rows, "\n")
	for _, want := range []string{"windowed instances (sliding)", "filter: stocks.sym = MSFT",
		"order by: stocks.price desc", "limit: 3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("explain missing %q in:\n%s", want, joined)
		}
	}
	// EXPLAIN must not register anything.
	if _, err := c.cmd("FETCH 0"); err == nil {
		t.Error("EXPLAIN registered a query")
	}
	// Unwindowed query reports the eddy runtime.
	rows, err = c.Explain(`SELECT price FROM stocks WHERE price > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(rows, "\n"), "adaptive eddy") {
		t.Errorf("explain = %v", rows)
	}
	if _, err := c.Explain("garbage"); err == nil {
		t.Error("EXPLAIN of garbage succeeded")
	}
}

func TestStatsCommand(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Feed("s", fmt.Sprintf("%d", i))
	}
	if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool {
		rows, err := c.Stats(qid)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(rows, "\n")
		return strings.Contains(joined, "results=4") &&
			strings.Contains(joined, "eddy:")
	}) {
		t.Fatal("stats never showed 4 results with eddy counters")
	}
}

// TestStatsTickets checks the routing-policy ticket counts appear in STATS
// module rows (satellite: expose the adaptation state, not just outcomes).
func TestStatsTickets(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Feed("s", fmt.Sprintf("%d", i))
	}
	if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool {
		rows, err := c.Stats(qid)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(rows, "\n")
		return strings.Contains(joined, "module 0:") && strings.Contains(joined, "tickets=")
	}) {
		t.Fatal("STATS never showed module ticket counts")
	}
}

func TestMetricsCommand(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 3`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Feed("s", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRows(t, c, qid, 4)

	rows, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rows, "\n")
	for _, want := range []string{
		`tcq_ingress_tuples_total{stream="s"} 8`,
		fmt.Sprintf(`tcq_query_results_total{query="%d"} 4`, qid),
		`tcq_server_commands_total{cmd="FEED"} 8`,
		"tcq_engine_streams 1",
		"tcq_server_connections_total 1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("METRICS missing %q in:\n%s", want, joined)
		}
	}

	// Deregistration removes the query's series from the registry.
	if err := c.Deregister(qid); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(rows, "\n"), fmt.Sprintf(`query="%d"`, qid)) {
		t.Error("deregistered query still exported metrics")
	}
}

func TestTraceCommand(t *testing.T) {
	e := core.NewEngine(core.Options{EOs: 2, TraceSampleRate: 1.0})
	pm, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pm.Close()
		e.Stop()
	})
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Feed("s", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRows(t, c, qid, 4)

	rows, err := c.Trace(qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("TRACE returned no traces at sample rate 1.0")
	}
	joined := strings.Join(rows, "\n")
	for _, want := range []string{"emitted=true", "emitted=false", "GF(s.x)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("TRACE missing %q in:\n%s", want, joined)
		}
	}
	if _, err := c.Trace(99); err == nil {
		t.Error("TRACE of unknown query succeeded")
	}

	// A join result's trace is forked from the probe that produced it: it
	// carries the fork edge and the probe tuple's path so far, its build
	// into one SteM and its probe of the other.
	for _, s := range []string{"a", "b"} {
		if err := c.CreateStream(s, "x INT", ""); err != nil {
			t.Fatal(err)
		}
	}
	jid, err := c.Query(`SELECT a.x, b.x FROM a, b WHERE a.x = b.x`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, s := range []string{"a", "b"} {
			if err := c.Feed(s, fmt.Sprintf("%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitRows(t, c, jid, 5)
	if rows, err = c.Trace(jid); err != nil {
		t.Fatal(err)
	}
	forked, unmatched := false, false
	for _, r := range rows {
		forked = forked || strings.Contains(r, "emitted=true") && strings.Contains(r, "fork-of=") &&
			strings.Contains(r, "Arr(a)") && strings.Contains(r, "Arr(b)")
		// A fed row is a partial join tuple: no member reads it, matched or
		// not, so it was emitted to no one.
		if !strings.Contains(r, "fork-of=") {
			if strings.Contains(r, "emitted=true") {
				t.Errorf("a fed row that reached no client reads emitted=true: %s", r)
			}
			// The probe hop, last on the path, found no match.
			unmatched = unmatched || strings.Contains(r, "emitted=false") && strings.HasSuffix(r, "pass+0") &&
				strings.Contains(r, "Arr(a)") && strings.Contains(r, "Arr(b)")
		}
	}
	if !forked {
		t.Errorf("TRACE has no emitted join result forked after a build and a probe hop:\n%s",
			strings.Join(rows, "\n"))
	}
	if !unmatched {
		t.Errorf("TRACE has no emitted=false row that matched nothing:\n%s", strings.Join(rows, "\n"))
	}
}

func TestTraceDisabled(t *testing.T) {
	_, pm := startServer(t) // default engine: tracing off
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s WHERE x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(qid); err == nil || !strings.Contains(err.Error(), "tracing disabled") {
		t.Errorf("TRACE without tracing = %v, want 'tracing disabled' error", err)
	}
}

// TestPrometheusFamiliesEndToEnd drives a join query plus wire commands
// through a live server, then checks the registry's Prometheus exposition
// carries the eddy, stem, ingress, and server metric families; the join's
// eddy and SteM series are its class's, labelled with the class key.
func TestPrometheusFamiliesEndToEnd(t *testing.T) {
	e, pm := startServer(t)
	c := dial(t, pm.Addr())
	if err := c.CreateStream("a", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream("b", "y INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT a.x FROM a, b WHERE a.x = b.y`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Feed("a", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Feed("b", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRows(t, c, qid, 5)

	var buf strings.Builder
	e.Metrics().WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE tcq_eddy_visits_total counter",
		"# TYPE tcq_stem_builds_total counter",
		"# TYPE tcq_ingress_tuples_total counter",
		"# TYPE tcq_server_commands_total counter",
		`tcq_eddy_module_visits_total{stream="a+b|0=1",module="Arr(a)"}`,
		`tcq_stem_size{stream="a+b|0=1",stem="a"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestInfoCommand checks INFO reports the engine's execution
// configuration, and that a parallel-configured server answers queries
// end-to-end over the wire.
func TestInfoCommand(t *testing.T) {
	e := core.NewEngine(core.Options{EOs: 2, Workers: 2, BatchSize: 16})
	pm, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pm.Close()
		e.Stop()
	})
	c := dial(t, pm.Addr())
	rows, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0], "workers=2") ||
		!strings.Contains(rows[0], "batchSize=16") {
		t.Fatalf("info = %v", rows)
	}
	// An aggregate CQ on this server runs through the parallel runtime;
	// results must still arrive correctly over the wire.
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT MAX(x) FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Feed("s", fmt.Sprintf("%d", i))
	}
	rows = waitRows(t, c, qid, 10)
	if len(rows) != 10 || !strings.Contains(rows[9], "9") {
		t.Fatalf("running-max rows = %v", rows)
	}
}

// TestExplainLiveAndTop checks the live EXPLAIN form (EXPLAIN <qid>) and
// the engine-wide TOP table over the wire.
func TestExplainLiveAndTop(t *testing.T) {
	e := core.NewEngine(core.Options{EOs: 2, Introspect: true})
	pm, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pm.Close()
		e.Stop()
	})
	c := dial(t, pm.Addr())
	if err := c.CreateStream("a", "k INT, v INT", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream("b", "k INT, w INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT a.v, b.w FROM a, b WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Feed("a", fmt.Sprintf("%d,%d", i, i*10))
		c.Feed("b", fmt.Sprintf("%d,%d", i, i*100))
	}
	if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool {
		rows, err := c.ExplainQuery(qid)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(rows, "\n")
		return strings.Contains(joined, "query shared:a+b|0=2 id=0") &&
			strings.Contains(joined, "Arr(a)") &&
			strings.Contains(joined, "Arr(b)") &&
			strings.Contains(joined, "probe_ns")
	}) {
		t.Fatal("live EXPLAIN never showed per-module telemetry")
	}
	// Live EXPLAIN of a missing query fails; the SQL form still works.
	if _, err := c.ExplainQuery(99); err == nil {
		t.Error("EXPLAIN 99 succeeded for a missing query")
	}
	if _, err := c.Explain(`SELECT v FROM a WHERE v > 1`); err != nil {
		t.Errorf("static EXPLAIN broken: %v", err)
	}

	top, err := c.Top(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 2 || !strings.Contains(top[0], "module") {
		t.Fatalf("TOP = %v", top)
	}
	if !strings.Contains(strings.Join(top, "\n"), "Arr(") {
		t.Errorf("TOP missing join modules: %v", top)
	}
	if capped, err := c.Top(1); err != nil || len(capped) != 2 {
		t.Fatalf("TOP 1 = %v, %v (want header + 1 row)", capped, err)
	}
	if _, err := c.cmdRows("TOP garbage"); err == nil {
		t.Error("TOP garbage succeeded")
	}
}

// TestStatsParallelShards checks STATS merges the shard-layer counters
// for a query on the parallel runtime (satellite: parallel metrics in
// STATS output).
func TestStatsParallelShards(t *testing.T) {
	e := core.NewEngine(core.Options{EOs: 2, Workers: 2, BatchSize: 8})
	pm, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pm.Close()
		e.Stop()
	})
	c := dial(t, pm.Addr())
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT MAX(x) FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Feed("s", fmt.Sprintf("%d", i))
	}
	if !chaos.Poll(nil, 5*time.Second, time.Millisecond, func() bool {
		rows, err := c.Stats(qid)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(rows, "\n")
		return strings.Contains(joined, "parallel: workers=2") &&
			strings.Contains(joined, "merged=") &&
			strings.Contains(joined, "eddy:")
	}) {
		t.Fatal("STATS never merged parallel shard counters")
	}
}

// TestSetPolicyCommand pins what a client written against the removed
// routing command sees now that routing follows the plan: a "SET policy"
// line is an ordinary unknown command, counted under the one UNKNOWN series.
func TestSetPolicyCommand(t *testing.T) {
	_, pm := startServer(t)
	c := dial(t, pm.Addr())
	_, err := c.cmd("SET policy 0 selectivity every=8")
	if err == nil || !strings.Contains(err.Error(), `unknown command "SET"`) {
		t.Fatalf("SET: err = %v, want unknown command \"SET\"", err)
	}
	rows, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if joined := strings.Join(rows, "\n"); !strings.Contains(joined, `tcq_server_commands_total{cmd="UNKNOWN"} 1`) {
		t.Errorf("SET not counted under UNKNOWN:\n%s", joined)
	}
}

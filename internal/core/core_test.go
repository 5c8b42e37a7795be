package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/chaos"

	"telegraphcq/internal/ingress"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// feedStocks feeds deterministic ClosingStockPrices rows: for each day,
// MSFT at price day (so the price equals the timestamp) and IBM at price
// day+100.
func feedStocks(t *testing.T, e *Engine, fromDay, toDay int64) {
	t.Helper()
	for d := fromDay; d <= toDay; d++ {
		if err := e.Feed("ClosingStockPrices", tuple.New(
			tuple.Time(d), tuple.String_("MSFT"), tuple.Float(float64(d)))); err != nil {
			t.Fatal(err)
		}
		if err := e.Feed("ClosingStockPrices", tuple.New(
			tuple.Time(d), tuple.String_("IBM"), tuple.Float(float64(d+100)))); err != nil {
			t.Fatal(err)
		}
	}
}

func newStockEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Options{EOs: 2})
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := chaos.Real().Now().Add(10 * time.Second)
	for chaos.Real().Now().Before(deadline) {
		if cond() {
			return
		}
		chaos.Real().Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// intStream creates a logical-time stream whose columns are all INT.
func intStream(t testing.TB, e *Engine, name string, cols ...string) {
	t.Helper()
	cs := make([]tuple.Column, len(cols))
	for i, c := range cols {
		cs[i] = tuple.Column{Name: c, Kind: tuple.KindInt}
	}
	if err := e.CreateStream(name, tuple.NewSchema(name, cs...), -1); err != nil {
		t.Fatal(err)
	}
}

// createSR creates the S(k, v) / R(k, w) pair most join tests run on.
func createSR(t testing.TB, e *Engine) {
	t.Helper()
	intStream(t, e, "S", "k", "v")
	intStream(t, e, "R", "k", "w")
}

// TestE7PaperWindowExamples reproduces the four §4.1 example queries over
// a deterministic stock stream (experiment E7).
func TestE7PaperWindowExamples(t *testing.T) {
	t.Run("Example1Snapshot", func(t *testing.T) {
		e := newStockEngine(t)
		defer e.Stop()
		feedStocks(t, e, 1, 10)
		q, err := e.Register(`SELECT closingPrice, timestamp
			FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'
			for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }`)
		if err != nil {
			t.Fatal(err)
		}
		q.Wait()
		cur := q.Cursor()
		res, err := q.Fetch(cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 5 {
			t.Fatalf("snapshot results = %d, want 5 (first five MSFT days)", len(res))
		}
		for i, r := range res {
			if r.Vals[0].AsFloat() != float64(i+1) {
				t.Errorf("row %d price = %v", i, r.Vals[0])
			}
		}
	})

	t.Run("Example2Landmark", func(t *testing.T) {
		e := newStockEngine(t)
		defer e.Stop()
		// Landmark at day 101; stand for 20 days (scaled down from the
		// paper's 1000). MSFT price = day, so price > 105 holds from
		// day 106 on.
		q, err := e.Register(`SELECT closingPrice, timestamp
			FROM ClosingStockPrices
			WHERE stockSymbol = 'MSFT' AND closingPrice > 105.00
			for (t = 101; t <= 120; t++) { WindowIs(ClosingStockPrices, 101, t); }`)
		if err != nil {
			t.Fatal(err)
		}
		feedStocks(t, e, 1, 125)
		q.Wait()
		cur := q.Cursor()
		res, _ := q.Fetch(cur)
		// Instance t returns MSFT days in [101, t] with day > 105:
		// max(0, t-105) rows; summed over t = 101..120: sum_{t=106..120}
		// (t-105) = 1+2+...+15 = 120.
		if len(res) != 120 {
			t.Fatalf("landmark results = %d, want 120", len(res))
		}
		if !q.Done() {
			t.Error("finite landmark query not done")
		}
	})

	t.Run("Example3SlidingAvg", func(t *testing.T) {
		e := newStockEngine(t)
		defer e.Stop()
		q, err := e.Register(`SELECT AVG(closingPrice)
			FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'
			for (t = 50; t < 70; t++) { WindowIs(ClosingStockPrices, t - 4, t); }`)
		if err != nil {
			t.Fatal(err)
		}
		feedStocks(t, e, 1, 80)
		q.Wait()
		cur := q.Cursor()
		res, _ := q.Fetch(cur)
		if len(res) != 20 {
			t.Fatalf("sliding results = %d, want 20", len(res))
		}
		// Window [t-4, t] of prices t-4..t averages to t-2; result TS
		// carries the instance's loop value.
		for _, r := range res {
			wantAvg := float64(r.TS - 2)
			if got := r.Vals[0].AsFloat(); got != wantAvg {
				t.Errorf("instance %d avg = %v, want %v", r.TS, got, wantAvg)
			}
		}
	})

	t.Run("Example4SelfJoin", func(t *testing.T) {
		e := newStockEngine(t)
		defer e.Stop()
		// "Which stocks beat MSFT on the same day?" IBM always does
		// (price day+100 vs day).
		q, err := e.Register(`SELECT c2.stockSymbol
			FROM ClosingStockPrices AS c1, ClosingStockPrices AS c2
			WHERE c1.stockSymbol = 'MSFT' AND c2.stockSymbol <> 'MSFT'
			AND c2.closingPrice > c1.closingPrice AND c2.timestamp = c1.timestamp
			for (t = 5; t < 8; t++) { WindowIs(c1, t - 1, t); WindowIs(c2, t - 1, t); }`)
		if err != nil {
			t.Fatal(err)
		}
		feedStocks(t, e, 1, 12)
		q.Wait()
		cur := q.Cursor()
		res, _ := q.Fetch(cur)
		// Each instance's windows hold 2 days x {MSFT, IBM}; matches are
		// (MSFT d, IBM d) per day in window: 2 per instance, 3 instances.
		if len(res) != 6 {
			t.Fatalf("self-join results = %d, want 6", len(res))
		}
		for _, r := range res {
			if r.Vals[0].AsString() != "IBM" {
				t.Errorf("winner = %v", r.Vals[0])
			}
		}
	})
}

// TestTumblingWindowKeepsTiedTimestamps: rows sharing a window's right-edge
// timestamp all belong to it, however the drain batches fall — an instance
// closes at the first tuple beyond its right edge, not at the first one
// reaching it. In a tumbling window a row closed out this way would fall
// into no instance at all. The feed ends exactly on the last right edge, so
// the final instance fires on the quiet stream, still with both its rows;
// a row arriving for it after that is late and only counted.
func TestTumblingWindowKeepsTiedTimestamps(t *testing.T) {
	for _, bs := range []int{1, 3, 64} {
		e := NewEngine(Options{EOs: 2, BatchSize: bs})
		if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
			t.Fatal(err)
		}
		q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
			for (t = 2; ; t += 2) { WindowIs(ClosingStockPrices, t - 1, t); }`)
		if err != nil {
			t.Fatal(err)
		}
		feedStocks(t, e, 1, 6)
		for i, row := range fetchAll(t, q, 3) {
			if want := fmt.Sprintf("ts=%d [4]", 2*i+2); row != want {
				t.Errorf("BatchSize=%d instance %d = %q, want %q", bs, i, row, want)
			}
		}
		feedStocks(t, e, 6, 6)
		late := fmt.Sprintf(`tcq_window_late_total{query="%d"}`, q.ID)
		waitFor(t, "late rows counted", func() bool {
			for _, s := range e.Metrics().Snapshot() {
				if s.Name == late {
					return s.Value == 2
				}
			}
			return false
		})
		e.Stop()
	}
}

func TestGroupedAggregateWithoutWindowRejected(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	_, err := e.Register(`SELECT stockSymbol, COUNT(*) FROM ClosingStockPrices GROUP BY stockSymbol`)
	if err == nil {
		t.Fatal("grouped unwindowed aggregate accepted")
	}
}

func TestBackwardWindowOverHistory(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	feedStocks(t, e, 1, 100)
	// Browse backward from day 100: three 10-day windows stepping back.
	q, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		for (t = 100; t > 70; t -= 10) { WindowIs(ClosingStockPrices, t - 9, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	cur := q.Cursor()
	res, _ := q.Fetch(cur)
	if len(res) != 30 {
		t.Fatalf("backward results = %d, want 30", len(res))
	}
	// First instance anchors at t=100.
	if res[0].TS != 100 {
		t.Errorf("first instance T = %d", res[0].TS)
	}
}

func TestSpooledEngineHistoricalQuery(t *testing.T) {
	e := NewEngine(Options{EOs: 1, SpoolDir: t.TempDir(), SegmentSize: 16})
	defer e.Stop()
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	feedStocks(nil2t(t), e, 1, 50)
	q, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 10, 19); }`)
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	cur := q.Cursor()
	res, _ := q.Fetch(cur)
	if len(res) != 10 {
		t.Fatalf("spooled snapshot = %d rows, want 10", len(res))
	}
}

// nil2t passes t through (readability helper for the spool test).
func nil2t(t *testing.T) *testing.T { return t }

func TestSlidingForeverKeepsRunning(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 3; ; t++) { WindowIs(ClosingStockPrices, t - 2, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 10)
	// Instances t = 3..9 can fire (instance 10 may fire too once data
	// for day 10 is all in; allow either).
	waitFor(t, "at least 7 instances", func() bool { return q.Results() >= 7 })
	if q.Done() {
		t.Error("standing query reported done")
	}
	feedStocks(t, e, 11, 12)
	waitFor(t, "more instances", func() bool { return q.Results() >= 9 })
}

// TestUnboundedLoopTearsDown: deregistering a standing for-loop query with
// no upper bound must retire its DU — after the inputs close it fires the
// instances that can still see buffered data (the sliding window draining
// to empty), then stops, instead of evaluating "t += 100" forever. The
// package's leakcheck TestMain fails the run if the executor cannot stop.
func TestUnboundedLoopTearsDown(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 1000; ; t += 100) { WindowIs(ClosingStockPrices, t - 999, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 1250)
	waitFor(t, "instances 1000..1200", func() bool { return q.Results() == 3 })
	if err := e.Deregister(q.ID); err != nil {
		t.Fatal(err)
	}
	// Another unbounded CQ on the same EO set proves the executor is not
	// wedged behind the deregistered one's DU.
	q2, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 1300; ; t += 100) { WindowIs(ClosingStockPrices, t - 99, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1251, 1300)
	waitFor(t, "second standing query fires", func() bool { return q2.Results() == 1 })
	// Days up to 1250 arrived, so instances 1300..2200 still overlap data
	// (left edge t-999 <= 1250): ten more, then the loop ends.
	waitFor(t, "deregistered query drains and stops", func() bool { return q.Results() == 13 })
	chaos.Real().Sleep(10 * time.Millisecond)
	if q.Results() != 13 {
		t.Errorf("deregistered unbounded loop kept firing: %d instances", q.Results())
	}
}

func TestFeedUnknownStream(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Stop()
	if err := e.Feed("nope", tuple.New(tuple.Int(1))); err == nil {
		t.Error("feed to unknown stream succeeded")
	}
}

func TestRegisterBadQuery(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	if _, err := e.Register(`SELECT nosuch FROM ClosingStockPrices`); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := e.Register(`garbage`); err == nil {
		t.Error("garbage accepted")
	}
}

// TestAgedOutResultsAreCounted: rows that leave the pull log unread used to
// vanish — RunningQuery.Fetch drops the missed count. Now the query's series
// account for every published row (retained + evicted = results) and for
// what the returning cursor was told it missed, and both go with the query.
func TestAgedOutResultsAreCounted(t *testing.T) {
	const retention, days = 1 << 16, 35000 // two rows a day: 70,000 results
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	away := q.Cursor() // replays from the start, and stays away past the cap
	feedStocks(t, e, 1, days)
	waitFor(t, "every result", func() bool { return q.Results() == 2*days })
	series := func() map[string]float64 {
		got := map[string]float64{}
		for _, s := range e.Metrics().Snapshot() {
			if strings.HasSuffix(s.Name, fmt.Sprintf(`{query="%d"}`, q.ID)) {
				got[strings.TrimSuffix(s.Name, fmt.Sprintf(`{query="%d"}`, q.ID))] = s.Value
			}
		}
		return got
	}
	m := series()
	if m["tcq_egress_pull_retained"] != retention || m["tcq_egress_pull_evicted_total"] != 2*days-retention ||
		m["tcq_query_results_total"] != 2*days || m["tcq_egress_pull_missed_total"] != 0 {
		t.Fatalf("before the fetch: %v", m)
	}
	rows, err := q.Fetch(away)
	if err != nil || len(rows) != retention {
		t.Fatalf("fetched %d rows, err %v", len(rows), err)
	}
	if first := rows[0].Vals[0].AsFloat(); first != float64((2*days-retention)/2+1) {
		t.Errorf("the retained suffix starts at price %v", first)
	}
	if m = series(); m["tcq_egress_pull_missed_total"] != 2*days-retention {
		t.Fatalf("after the fetch: %v", m)
	}
	if err := e.Deregister(q.ID); err != nil {
		t.Fatal(err)
	}
	if m = series(); len(m) != 0 {
		t.Fatalf("series left behind by a deregistered query: %v", m)
	}
}

func TestStreamTableJoinPreloadsTable(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	if err := e.CreateStream("pkts", tuple.NewSchema("pkts",
		tuple.Column{Name: "src", Kind: tuple.KindInt},
		tuple.Column{Name: "bytes", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("watch", tuple.NewSchema("watch",
		tuple.Column{Name: "host", Kind: tuple.KindInt},
		tuple.Column{Name: "why", Kind: tuple.KindString})); err != nil {
		t.Fatal(err)
	}
	// Table contents arrive BEFORE the query registers.
	e.Feed("watch", tuple.New(tuple.Int(7), tuple.String_("bad")))
	q, err := e.Register(`SELECT pkts.src, watch.why FROM pkts, watch WHERE pkts.src = watch.host`)
	if err != nil {
		t.Fatal(err)
	}
	e.Feed("pkts", tuple.New(tuple.Int(7), tuple.Int(100)))
	e.Feed("pkts", tuple.New(tuple.Int(8), tuple.Int(100)))
	waitFor(t, "1 alert", func() bool { return q.Results() == 1 })
	// A watch row added after registration also joins (arrives via the
	// subscription path, deduplicated against the preload).
	e.Feed("watch", tuple.New(tuple.Int(8), tuple.String_("new")))
	e.Feed("pkts", tuple.New(tuple.Int(8), tuple.Int(1)))
	waitFor(t, "more alerts", func() bool { return q.Results() >= 2 })
}

func TestQoSLoadShedding(t *testing.T) {
	e := NewEngine(Options{EOs: 1, QueueCap: 4, Shed: true})
	defer e.Stop()
	if err := e.CreateStream("s", tuple.NewSchema("s",
		tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register(`SELECT x FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the executor so queues cannot drain, then overrun them: the
	// producer must never block and the overflow must be counted.
	e.exec.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			e.Feed("s", tuple.New(tuple.Int(int64(i))))
		}
	}()
	select {
	case <-done:
	case <-chaos.Real().After(5 * time.Second):
		t.Fatal("producer blocked despite load shedding")
	}
	if drops := q.InputDrops(); drops != 96 { // capacity 4 held, 96 shed
		t.Errorf("input drops = %d, want 96", drops)
	}
}

func TestBackpressureWithoutShedding(t *testing.T) {
	// Default mode: the producer blocks when a queue fills, so nothing
	// is ever dropped (verified by count once the executor drains).
	e := NewEngine(Options{EOs: 1, QueueCap: 4})
	defer e.Stop()
	if err := e.CreateStream("s", tuple.NewSchema("s",
		tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register(`SELECT x FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Feed("s", tuple.New(tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all 200 delivered", func() bool { return q.Results() == 200 })
	if q.InputDrops() != 0 {
		t.Errorf("drops = %d in backpressure mode", q.InputDrops())
	}
}

func TestSlidingForeverEvictsBuffer(t *testing.T) {
	// Standing sliding query must not retain the whole stream: the window
	// buffer is evicted up to the next instance's left edge.
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 3; ; t++) { WindowIs(ClosingStockPrices, t - 2, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 200)
	waitFor(t, "many instances", func() bool { return q.Results() >= 190 })
	// Quiesce the executor before inspecting runtime internals.
	e.Stop()
	rt := q.rt.(*windowRuntime)
	// The live panes hold at most the live window plus the undrained tail;
	// far less than the 400 tuples fed.
	if n := rt.held[0].Load(); rt.panes == nil || n > 50 {
		t.Errorf("window holds %d tuples (pane path: %v); eviction broken", n, rt.panes != nil)
	}
}

func TestMismatchedTimeKindsRejected(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	phys := tuple.NewSchema("p",
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "k", Kind: tuple.KindInt})
	logi := tuple.NewSchema("l",
		tuple.Column{Name: "k", Kind: tuple.KindInt})
	if err := e.CreateStream("p", phys, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateStream("l", logi, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(`SELECT p.k FROM p, l WHERE p.k = l.k`); err == nil {
		t.Error("mixed logical/physical time join accepted")
	}
}

func TestDistinctWithAggregateRejected(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	if _, err := e.Register(`SELECT DISTINCT MAX(closingPrice) FROM ClosingStockPrices`); err == nil {
		t.Error("DISTINCT with aggregate accepted")
	}
}

func TestLandmarkGroupedAggIncrementalFastPath(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT stockSymbol, COUNT(*), MAX(closingPrice)
		FROM ClosingStockPrices
		GROUP BY stockSymbol
		for (t = 2; t <= 6; t++) { WindowIs(ClosingStockPrices, 1, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 8)
	q.Wait()
	// The pane path must be active (landmark + aggregate + single stream):
	// one pane per day, and fired days merged into the prefix.
	rt := q.rt.(*windowRuntime)
	if rt.panes == nil || rt.buffers[0] != nil {
		t.Fatal("landmark pane path not selected")
	}
	res, _ := q.Fetch(q.Cursor())
	if len(res) != 10 { // 5 instances x 2 groups
		t.Fatalf("rows = %d, want 10", len(res))
	}
	for _, r := range res {
		inst := r.TS
		sym := r.Vals[0].AsString()
		if r.Vals[1].AsInt() != inst { // count = days in [1, t]
			t.Errorf("%s@%d count = %d", sym, inst, r.Vals[1].AsInt())
		}
		wantMax := float64(inst)
		if sym == "IBM" {
			wantMax += 100
		}
		if r.Vals[2].AsFloat() != wantMax {
			t.Errorf("%s@%d max = %v, want %v", sym, inst, r.Vals[2], wantMax)
		}
	}
	// No row of the landmark window is retained: fired panes live on as the
	// prefix's partial aggregates, and the live panes hold only what
	// arrived past the last instance. Each row was read once.
	e.Stop()
	if n := rt.held[0].Load(); n != rt.panes.Rows() || n > 8 {
		t.Errorf("landmark panes hold %d rows (gauge %d)", rt.panes.Rows(), n)
	}
	if sc, adm := rt.scanned.Load(), rt.admitted[0].Load(); sc != adm {
		t.Errorf("scanned %d rows for %d admitted", sc, adm)
	}
}

func TestIncrementalJoinBoundedState(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	for _, name := range []string{"A", "B"} {
		if err := e.CreateStream(name, tuple.NewSchema(name,
			tuple.Column{Name: "ts", Kind: tuple.KindTime},
			tuple.Column{Name: "k", Kind: tuple.KindInt}), 0); err != nil {
			t.Fatal(err)
		}
	}
	q, err := e.Register(`SELECT A.k FROM A, B WHERE A.k = B.k
		for (t = 5; ; t++) { WindowIs(A, t - 4, t); WindowIs(B, t - 4, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 500; ts++ {
		e.Feed("A", tuple.New(tuple.Time(ts), tuple.Int(ts%3)))
		e.Feed("B", tuple.New(tuple.Time(ts), tuple.Int(ts%3)))
	}
	// Each instance yields ~8 rows; wait until the loop has caught up
	// with the fed data (t up to ~500) before inspecting state.
	waitFor(t, "instances caught up", func() bool { return q.Results() > 4000 })
	e.Stop()
	ij := q.rt.(*windowRuntime).incJoin
	if ij == nil {
		t.Fatal("fast path not selected")
	}
	if n := ij.stems[0].Size() + ij.stems[1].Size(); n > 60 {
		t.Errorf("SteM state = %d tuples after 1000 arrivals (no eviction?)", n)
	}
	if n := ij.matches.Len(); n > 200 {
		t.Errorf("match buffer = %d (no eviction?)", n)
	}
}

func TestSpooledStandingSlidingQuery(t *testing.T) {
	e := NewEngine(Options{EOs: 1, SpoolDir: t.TempDir(), SegmentSize: 8})
	defer e.Stop()
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	// History exists before the query registers; the sliding loop starts
	// in the past, so early instances answer purely from the spool.
	feedStocks(t, e, 1, 30)
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 5; ; t += 5) { WindowIs(ClosingStockPrices, t - 4, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "historical instances", func() bool { return q.Results() >= 6 })
	res, _ := q.Fetch(q.Cursor())
	for _, r := range res {
		if r.Vals[0].AsInt() != 10 { // 5 days x 2 symbols
			t.Errorf("instance %d count = %d, want 10", r.TS, r.Vals[0].AsInt())
		}
	}
	// And it keeps running on fresh data.
	feedStocks(t, e, 31, 40)
	waitFor(t, "fresh instances", func() bool { return q.Results() >= 8 })
}

func TestEngineAccessorsAndSources(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	if e.Catalog() == nil {
		t.Fatal("nil catalog")
	}
	// AttachSource pumps a pull source to completion.
	rows := []*tuple.Tuple{
		tuple.New(tuple.Time(1), tuple.String_("MSFT"), tuple.Float(10)),
		tuple.New(tuple.Time(2), tuple.String_("MSFT"), tuple.Float(20)),
	}
	q, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := e.AttachSource("ClosingStockPrices", ingress.NewSliceSource(rows))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "source rows delivered", func() bool { return q.Results() == 2 })
	if _, err := e.AttachSource("nope", ingress.NewSliceSource(nil)); err == nil {
		t.Error("attach to unknown stream succeeded")
	}
	// FeedMany batch path.
	if _, err := e.FeedMany("ClosingStockPrices", rows[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch delivered", func() bool { return q.Results() == 3 })
	// Unsubscribe closes the push channel.
	sub, ch := q.Subscribe(4)
	q.Unsubscribe(sub)
	if _, open := <-ch; open {
		t.Error("channel open after unsubscribe")
	}
}

// TestFeedManyFeedsSpooledPrefixOnError: when spooling tuple k of a batch
// fails, tuples 0…k−1, already stamped and spooled, still reach the
// standing query and the feed counter, and FeedMany reports k fed (the
// parent returned the error and fanned none of them out).
func TestFeedManyFeedsSpooledPrefixOnError(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(Options{EOs: 1, SpoolDir: dir, SegmentSize: 8})
	defer e.Stop()
	if err := e.CreateStream("s", tuple.NewSchema("s", tuple.Column{Name: "x", Kind: tuple.KindInt}), -1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register("SELECT x FROM s")
	if err != nil {
		t.Fatal(err)
	}
	rows := func(from, to int) []*tuple.Tuple {
		var out []*tuple.Tuple
		for i := from; i < to; i++ {
			out = append(out, tuple.New(tuple.Int(int64(i))))
		}
		return out
	}
	if n, err := e.FeedMany("s", rows(0, 5)); n != 5 || err != nil {
		t.Fatalf("first batch: %d fed, %v", n, err)
	}
	// The open segment holds 5 of 8; the third tuple of the next batch
	// fills it, and its flush finds no directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FeedMany("s", rows(5, 15)); n != 2 || err == nil {
		t.Fatalf("second batch: %d fed, %v; want 2 fed and the spool error", n, err)
	}
	waitFor(t, "7 results", func() bool { return q.Results() >= 7 })
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Vals[0].AsInt() != int64(i) || r.Seq != int64(i+1) {
			t.Fatalf("result %d = %v seq %d", i, r.Vals, r.Seq)
		}
	}
	if len(res) != 7 {
		t.Fatalf("%d results, want 7", len(res))
	}
	if fed := e.Metrics().Counter(`tcq_ingress_tuples_total{stream="s"}`).Value(); fed != 7 {
		t.Errorf("tcq_ingress_tuples_total = %d, want 7", fed)
	}
}

func TestTopKOverIncrementalJoin(t *testing.T) {
	// ORDER BY/LIMIT must compose with the incremental join fast path.
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	for _, name := range []string{"X", "Y"} {
		if err := e.CreateStream(name, tuple.NewSchema(name,
			tuple.Column{Name: "ts", Kind: tuple.KindTime},
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "v", Kind: tuple.KindInt}), 0); err != nil {
			t.Fatal(err)
		}
	}
	q, err := e.Register(`SELECT X.v FROM X, Y WHERE X.k = Y.k
		ORDER BY X.v DESC LIMIT 2
		for (t = 3; t <= 4; t++) { WindowIs(X, t - 2, t); WindowIs(Y, t - 2, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.rt.(*windowRuntime).incJoin == nil {
		t.Fatal("fast path not selected")
	}
	for ts := int64(1); ts <= 6; ts++ {
		e.Feed("X", tuple.New(tuple.Time(ts), tuple.Int(1), tuple.Int(ts*10)))
		e.Feed("Y", tuple.New(tuple.Time(ts), tuple.Int(1), tuple.Int(0)))
	}
	q.Wait()
	res, _ := q.Fetch(q.Cursor())
	if len(res) != 4 { // 2 instances x top-2
		t.Fatalf("rows = %d, want 4", len(res))
	}
	// Instance t: X rows in window have v = 10(t-2)..10t; top-2 are 10t,
	// 10(t-1), each joining 3 Y rows — but LIMIT applies to join rows, so
	// the top-2 ROWS are both X.v = 10t (paired with different Y rows).
	for _, r := range res {
		if r.Vals[0].AsInt() != r.TS*10 {
			t.Errorf("instance %d top row v = %d, want %d", r.TS, r.Vals[0].AsInt(), r.TS*10)
		}
	}
}

// TestRegisterRejectsOversizedPlan: a plan whose class needs more than 64
// eddy modules (one grouped filter per selected column, one SteM per joined
// FROM position) must be refused with a descriptive error at registration,
// not a panic inside the routing core.
func TestRegisterRejectsOversizedPlan(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	createSR(t, e)
	cols := make([]string, 64)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	intStream(t, e, "W", cols...)
	// Selections on 63 distinct columns need 63 grouped filters; with the
	// self-join's 2 SteMs that is 65 modules, one past the lineage-bitmap
	// cap. (Selections on one column share one filter.)
	var sb strings.Builder
	sb.WriteString("SELECT a.c0, b.c0 FROM W a, W b WHERE a.c0 = b.c0")
	for i := 1; i < 64; i++ {
		fmt.Fprintf(&sb, " AND a.c%d > %d", i, -i)
	}
	_, err := e.Register(sb.String())
	if err == nil {
		t.Fatal("65-module plan accepted")
	}
	if !strings.Contains(err.Error(), "64") {
		t.Fatalf("error %q does not mention the 64-module cap", err)
	}
	// The engine must remain usable after the rejection.
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		e.Feed("S", tuple.New(tuple.Int(i), tuple.Int(i)))
		e.Feed("R", tuple.New(tuple.Int(i), tuple.Int(i*10)))
	}
	waitFor(t, "join results after rejected plan", func() bool { return q.Results() >= 4 })
}

package telegraphcq

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{})
	t.Cleanup(db.Close)
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("quotes", "ts TIME, sym STRING, price FLOAT", "ts")
	q, err := db.Register(`SELECT price FROM quotes WHERE sym = 'MSFT'`)
	if err != nil {
		t.Fatal(err)
	}
	rows := q.Subscribe(16)
	if err := db.Feed("quotes", 1, "MSFT", 57.25); err != nil {
		t.Fatal(err)
	}
	if err := db.Feed("quotes", 1, "IBM", 99.0); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-rows:
		if r.Float(0) != 57.25 {
			t.Errorf("price = %v", r.Float(0))
		}
	case <-chaos.Real().After(5 * time.Second):
		t.Fatal("no result")
	}
}

// TestSubscribeEndsWithQuery ranges over Subscribe's channel as a client
// would: the range ends once the query is deregistered, and a subscriber
// that stopped reading does not keep its forwarder alive (leakcheck).
func TestSubscribeEndsWithQuery(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("s", "x INT", "")
	q, err := db.Register(`SELECT x FROM s WHERE x > 0`)
	if err != nil {
		t.Fatal(err)
	}
	rows, stalled := q.Subscribe(4), q.Subscribe(1)
	for i := 1; i <= 3; i++ {
		if err := db.Feed("s", i); err != nil {
			t.Fatal(err)
		}
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for range rows {
		}
		for range stalled {
		}
	}()
	if err := q.Deregister(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ended:
	case <-chaos.Real().After(5 * time.Second):
		t.Fatal("range over Subscribe did not end after Deregister")
	}
}

func TestCursorFetch(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("s", "x INT", "")
	q, err := db.Register(`SELECT x FROM s WHERE x > 2`)
	if err != nil {
		t.Fatal(err)
	}
	cur := q.Cursor()
	for i := 1; i <= 5; i++ {
		if err := db.Feed("s", i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := chaos.Real().Now().Add(5 * time.Second)
	var got []Row
	for len(got) < 3 && chaos.Real().Now().Before(deadline) {
		rows, err := cur.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
		chaos.Real().Sleep(time.Millisecond)
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].Int(0) != 3 {
		t.Errorf("first = %d", got[0].Int(0))
	}
}

func TestWindowedAggregateAPI(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("quotes", "ts TIME, sym STRING, price FLOAT", "ts")
	q, err := db.Register(`SELECT AVG(price) FROM quotes
		for (t = 3; t <= 5; t++) { WindowIs(quotes, t - 2, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 7; day++ {
		db.Feed("quotes", day, "MSFT", float64(day))
	}
	q.Wait()
	rows, err := q.Cursor().Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("instances = %d", len(rows))
	}
	// Window [t-2, t] over prices equal to day: avg = t-1; rows tagged
	// with the instance value.
	for _, r := range rows {
		if r.Float(0) != float64(r.T-1) {
			t.Errorf("instance %d avg = %v", r.T, r.Float(0))
		}
	}
}

func TestFeedValidation(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("s", "x INT, name STRING", "")
	if err := db.Feed("s", 1); err == nil {
		t.Error("short row accepted")
	}
	if err := db.Feed("s", "no", "way"); err == nil {
		t.Error("string for INT accepted")
	}
	if err := db.Feed("s", 1, 2); err == nil {
		t.Error("int for STRING accepted")
	}
	if err := db.Feed("nope", 1); err == nil {
		t.Error("unknown stream accepted")
	}
	if err := db.FeedCSV("s", "1,alice"); err != nil {
		t.Error(err)
	}
}

func TestCreateStreamValidation(t *testing.T) {
	db := openDB(t)
	if err := db.CreateStream("s", "x WAT", ""); err == nil {
		t.Error("bad type accepted")
	}
	if err := db.CreateStream("s", "x INT", "nope"); err == nil {
		t.Error("bad time column accepted")
	}
	if err := db.CreateTable("t", "x INT"); err != nil {
		t.Error(err)
	}
}

func TestServeAndDial(t *testing.T) {
	db := openDB(t)
	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream("s", "x INT", ""); err != nil {
		t.Fatal(err)
	}
	qid, err := c.Query(`SELECT x FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feed("s", "7"); err != nil {
		t.Fatal(err)
	}
	deadline := chaos.Real().Now().Add(5 * time.Second)
	for chaos.Real().Now().Before(deadline) {
		rows, err := c.Fetch(qid)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 1 && rows[0] == "7" {
			return
		}
		chaos.Real().Sleep(time.Millisecond)
	}
	t.Fatal("row never arrived over the wire")
}

func TestRowString(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("s", "x INT, name STRING", "")
	q, _ := db.Register(`SELECT x, name FROM s`)
	cur := q.Cursor()
	db.Feed("s", 7, "alice")
	deadline := chaos.Real().Now().Add(5 * time.Second)
	for chaos.Real().Now().Before(deadline) {
		rows, _ := cur.Fetch()
		if len(rows) == 1 {
			if rows[0].String() != "7,alice" {
				t.Errorf("row = %q", rows[0].String())
			}
			if rows[0].Len() != 2 || rows[0].String_(1) != "alice" {
				t.Errorf("accessors wrong: %v", rows[0])
			}
			return
		}
		chaos.Real().Sleep(time.Millisecond)
	}
	t.Fatal("timed out")
}

func TestSubscribePriority(t *testing.T) {
	db := openDB(t)
	db.MustCreateStream("s", "x INT, urgency FLOAT", "")
	q, err := db.Register(`SELECT x, urgency FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	pq := q.SubscribePriority(16, func(r Row) float64 { return r.Float(1) })
	for i, u := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		db.Feed("s", i, u)
	}
	deadline := chaos.Real().Now().Add(5 * time.Second)
	for q.Results() < 5 && chaos.Real().Now().Before(deadline) {
		chaos.Real().Sleep(time.Millisecond)
	}
	rows := pq.Drain(0)
	if len(rows) != 5 {
		t.Fatalf("drained %d", len(rows))
	}
	// Most urgent first.
	want := []float64{0.9, 0.7, 0.5, 0.3, 0.1}
	for i := range want {
		if rows[i].Float(1) != want[i] {
			t.Fatalf("priority order = %v", rows)
		}
	}
	if emitted, _ := pq.Stats(); emitted != 5 {
		t.Errorf("emitted = %d", emitted)
	}
}

// TestDBFeedWindowSteadyStateAllocs: a sliding GROUP BY fed through
// DB.Feed allocates almost nothing per row at steady state. The row comes
// from the engine's tuple pool and goes back once Feed returns, history
// keeps its values in chunks, and the window folds the subscriber clone
// into its panes and recycles it (a history of pointers cost ~2 a row: the
// values and the tuple it kept).
func TestDBFeedWindowSteadyStateAllocs(t *testing.T) {
	const syms, span, step, warm, measured = 50, 1000, 100, 20000, 40000
	const total = warm + measured
	vals := make([][]interface{}, total+1)
	for ts := 1; ts <= total; ts++ {
		vals[ts] = []interface{}{ts, ts % syms, float64(ts%97) + 0.5, ts}
	}
	// fired is the result count once every instance with t <= ts has fired:
	// each has every symbol in its window.
	fired := func(ts int) int64 { return int64((ts-span)/step+1) * syms }
	best := -1.0
	for trial := 0; trial < 3; trial++ {
		db := Open(Config{})
		db.MustCreateStream("quotes", "ts TIME, sym INT, price FLOAT, born INT", "ts")
		q, err := db.Register(fmt.Sprintf(`SELECT sym, AVG(price), MAX(born) FROM quotes GROUP BY sym
			for (t = %d; t <= %d; t += %d) { WindowIs(quotes, t - %d, t); }`, span, total, step, span-1))
		if err != nil {
			t.Fatal(err)
		}
		feed := func(from, to int) {
			for ts := from; ts <= to; ts++ {
				if err := db.Feed("quotes", vals[ts]...); err != nil {
					t.Fatal(err)
				}
			}
		}
		wait := func(want int64) {
			if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() >= want }) {
				t.Fatalf("%d of %d results", q.Results(), want)
			}
		}
		feed(1, warm)
		wait(fired(warm))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		feed(warm+1, total)
		wait(fired(total))
		runtime.ReadMemStats(&after)
		db.Close()
		if a := float64(after.Mallocs-before.Mallocs) / measured; best < 0 || a < best {
			best = a
		}
	}
	t.Logf("%.2f mallocs per row fed through DB.Feed", best)
	if best > 0.5 {
		t.Errorf("%.2f mallocs per row fed through DB.Feed at steady state, want <= 0.5", best)
	}
}

// TestCursorFetchAllocatesPerCall: Cursor.Fetch decodes the pull log into
// one array of rows and one of values, so fetching 10,000 rows costs what
// fetching 10 does, not an allocation or two per row.
func TestCursorFetchAllocatesPerCall(t *testing.T) {
	db := Open(Config{})
	defer db.Close()
	db.MustCreateStream("s", "a INT, b FLOAT, c BOOL", "")
	q, err := db.Register(`SELECT c, a, b FROM s WHERE a >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	cur := q.Cursor()
	fed := 0
	fetch := func(n int) (allocs uint64) {
		for i := 0; i < n; i++ {
			fed++
			if err := db.Feed("s", fed, float64(fed)+0.5, fed%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == int64(fed) }) {
			t.Fatalf("%d of %d results", q.Results(), fed)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := cur.Fetch()
		runtime.ReadMemStats(&after)
		if err != nil || len(rows) != n {
			t.Fatalf("fetched %d rows, want %d (err %v)", len(rows), n, err)
		}
		if r := rows[n-1]; r.Int(1) != int64(fed) || r.Float(2) != float64(fed)+0.5 || r.String_(0) != fmt.Sprint(fed%2 == 0) {
			t.Fatalf("last row %v, want %d fed as (%d, %v, %v)", r, fed, fed, float64(fed)+0.5, fed%2 == 0)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, n := range []int{10, 10000} {
		fetch(n) // the cursor's buffer grows to the size once
		a := fetch(n)
		t.Logf("Cursor.Fetch of %d rows: %d allocations", n, a)
		if a > 50 { // a few, and a few more when a collection starts inside
			t.Errorf("Cursor.Fetch of %d rows allocates %d times, want a few dozen at most", n, a)
		}
	}
}

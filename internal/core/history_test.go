package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// Pins for a stream's in-memory history being an encoded log: the engine
// keeps values, never a fed tuple, and every value comes back exactly.

// sameValue reports whether two values are identical, floats bit for bit
// (−0.0 is not 0.0, NaN is itself).
func sameValue(a, b tuple.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// snapshotRows registers a one-instance snapshot over [1, right] of stream
// and returns its rows, all of them preloaded from history.
func snapshotRows(t *testing.T, e *Engine, stream string, right int) []*tuple.Tuple {
	t.Helper()
	q, err := e.Register(fmt.Sprintf(`SELECT * FROM %s
		for (; t == 0; t = -1) { WindowIs(%s, 1, %d); }`, stream, stream, right))
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	rows, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFeedRetainsNoRow: Feed keeps no reference to the caller's tuple, so
// overwriting a fed row and feeding it again leaves the history with both
// rows as they were fed (a history holding the pointer would show the
// later query the second row twice).
func TestFeedRetainsNoRow(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	intStream(t, e, "s", "a", "b")
	row := tuple.New(tuple.Int(10), tuple.Int(11))
	if err := e.Feed("s", row); err != nil {
		t.Fatal(err)
	}
	row.Vals[0], row.Vals[1] = tuple.Int(20), tuple.Int(21)
	if err := e.Feed("s", row); err != nil {
		t.Fatal(err)
	}
	rows := snapshotRows(t, e, "s", 2)
	want := [][2]int64{{10, 11}, {20, 21}}
	if len(rows) != len(want) {
		t.Fatalf("history holds %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Vals[0].I != want[i][0] || r.Vals[1].I != want[i][1] {
			t.Errorf("row %d = %v, want %v", i, r.Vals, want[i])
		}
	}
}

// historyKinds are rows covering every value kind and its edge cases:
// NULL in each column that allows it, −0.0 and ±Inf, the empty and a
// multi-byte string, both booleans, and times at both signs.
func historyKinds() [][]tuple.Value {
	return [][]tuple.Value{
		{tuple.Int(1), tuple.Null, tuple.Float(math.Copysign(0, -1)), tuple.String_(""), tuple.Bool(true), tuple.Time(-5)},
		{tuple.Int(2), tuple.Int(math.MinInt64), tuple.Float(math.Inf(1)), tuple.String_("héllo, 世界"), tuple.Bool(false), tuple.Null},
		{tuple.Int(3), tuple.Int(math.MaxInt64), tuple.Float(math.Inf(-1)), tuple.Null, tuple.Null, tuple.Time(1 << 40)},
		{tuple.Int(4), tuple.Int(0), tuple.Float(3.25), tuple.String_("x"), tuple.Bool(true), tuple.Time(0)},
	}
}

func historySchema(name string, k tuple.Kind) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Column{Name: "k", Kind: k}, tuple.Column{Name: "i", Kind: tuple.KindInt},
		tuple.Column{Name: "f", Kind: tuple.KindFloat}, tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "b", Kind: tuple.KindBool}, tuple.Column{Name: "tm", Kind: tuple.KindTime})
}

// TestHistoryRoundTripsEveryKind: values read back from history — by a
// windowed query's preload and by a stream-table join's table replay —
// are the values fed, kind and bits.
func TestHistoryRoundTripsEveryKind(t *testing.T) {
	in := historyKinds()
	for _, tc := range []struct {
		name string
		rows func(t *testing.T, e *Engine) []*tuple.Tuple
	}{
		{"window preload", func(t *testing.T, e *Engine) []*tuple.Tuple {
			if err := e.CreateStream("h", historySchema("h", tuple.KindTime), 0); err != nil {
				t.Fatal(err)
			}
			for _, vals := range in {
				vals = append([]tuple.Value{tuple.Time(vals[0].I)}, vals[1:]...)
				if err := e.Feed("h", tuple.New(vals...)); err != nil {
					t.Fatal(err)
				}
			}
			return snapshotRows(t, e, "h", len(in))
		}},
		{"table replay", func(t *testing.T, e *Engine) []*tuple.Tuple {
			if err := e.CreateTable("tb", historySchema("tb", tuple.KindInt)); err != nil {
				t.Fatal(err)
			}
			for _, vals := range in {
				if err := e.Feed("tb", tuple.New(vals...)); err != nil {
					t.Fatal(err)
				}
			}
			intStream(t, e, "p", "k")
			q, err := e.Register(`SELECT tb.k, tb.i, tb.f, tb.s, tb.b, tb.tm FROM p, tb WHERE p.k = tb.k`)
			if err != nil {
				t.Fatal(err)
			}
			for k := range in {
				if err := e.Feed("p", tuple.New(tuple.Int(int64(k+1)))); err != nil {
					t.Fatal(err)
				}
			}
			waitResults(t, q, int64(len(in)))
			rows, err := q.Fetch(q.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Options{EOs: 1})
			defer e.Stop()
			rows := tc.rows(t, e)
			if len(rows) != len(in) {
				t.Fatalf("%d rows, want %d", len(rows), len(in))
			}
			for _, r := range rows {
				want := in[r.Vals[0].I-1]
				for j := 1; j < len(want); j++ {
					if !sameValue(r.Vals[j], want[j]) {
						t.Errorf("row k=%d column %d = %#v, want %#v", r.Vals[0].I, j, r.Vals[j], want[j])
					}
				}
			}
		})
	}
}

// TestHistoryGauges: tcq_stream_history_rows and _bytes report what the log
// holds — every row of a three-INT stream, in under 32 bytes a row of
// chunk capacity.
func TestHistoryGauges(t *testing.T) {
	const n = 100000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	intStream(t, e, "s", "a", "b", "c")
	row := tuple.New(tuple.Int(0), tuple.Int(0), tuple.Int(0))
	for i := 0; i < n; i++ {
		row.Vals[0], row.Vals[1], row.Vals[2] = tuple.Int(int64(i)), tuple.Int(int64(i%1000)), tuple.Int(-int64(i))
		if err := e.Feed("s", row); err != nil {
			t.Fatal(err)
		}
	}
	if rows := metricValue(t, e, `tcq_stream_history_rows{stream="s"}`); rows != n {
		t.Errorf("tcq_stream_history_rows = %v, want %d", rows, n)
	}
	bytes := metricValue(t, e, `tcq_stream_history_bytes{stream="s"}`)
	t.Logf("%.1f bytes of history per row", bytes/n)
	if bytes/n >= 32 {
		t.Errorf("tcq_stream_history_bytes = %v: %.1f bytes a row, want under 32", bytes, bytes/n)
	}
}

// TestHistoryKeepsNewestRowsPastCap: past its row cap a stream's history
// ages out its oldest rows, so a windowed query registered afterwards over
// the newest rows finds them and fires (the parent kept the first rows and
// dropped every later one, and such an instance never fired).
func TestHistoryKeepsNewestRowsPastCap(t *testing.T) {
	const capRows, n = 1000, 5000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	intStream(t, e, "s", "a", "b")
	st, err := e.stream("s")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.histCap = capRows
	st.mu.Unlock()
	run := make([]*tuple.Tuple, 0, 37)
	for i := 1; i <= n; i++ {
		run = append(run, tuple.New(tuple.Int(int64(i)), tuple.Int(int64(2*i))))
		if len(run) == cap(run) || i == n {
			if fed, err := e.FeedMany("s", run); fed != len(run) || err != nil {
				t.Fatalf("FeedMany fed %d of %d: %v", fed, len(run), err)
			}
			run = run[:0]
		}
	}
	if rows := metricValue(t, e, `tcq_stream_history_rows{stream="s"}`); rows != capRows {
		t.Errorf("tcq_stream_history_rows = %v, want %d", rows, capRows)
	}
	q, err := e.Register(fmt.Sprintf(`SELECT * FROM s
		for (; t == 0; t = -1) { WindowIs(s, %d, %d); }`, n-9, n))
	if err != nil {
		t.Fatal(err)
	}
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, q.Done) {
		t.Fatal("a window over the newest rows did not fire within 10 s")
	}
	rows, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("window over the newest 10 rows returned %d", len(rows))
	}
	for i, r := range rows {
		if want := int64(n - 9 + i); r.Vals[0].I != want || r.Vals[1].I != 2*want {
			t.Errorf("row %d = %v, want [%d %d]", i, r.Vals, want, 2*want)
		}
	}

	// Reads of the history race a feeder that ages its rows out and reuses
	// the chunks it retires: every read holds the newest capRows rows, as fed.
	done := make(chan error, 1)
	go func() {
		var err error
		for i := n + 1; i <= 20*n && err == nil; i++ {
			err = e.Feed("s", tuple.New(tuple.Int(int64(i)), tuple.Int(int64(2*i))))
		}
		done <- err
	}()
	for k := 0; k < 50; k++ {
		hist, err := st.historyRange(-1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != capRows {
			t.Fatalf("read %d: %d rows, want %d", k, len(hist), capRows)
		}
		for i, r := range hist {
			if r.Vals[1].I != 2*r.Vals[0].I || i > 0 && r.Vals[0].I != hist[i-1].Vals[0].I+1 {
				t.Fatalf("read %d, row %d = %v after %v", k, i, r.Vals, hist[max(i-1, 0)].Vals)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPullLogGauges: tcq_egress_pull_bytes reports the chunks a query's pull
// log holds — none before its first result, and past the cap the 65,536
// retained rows of three INTs in under 32 bytes a row of chunk capacity —
// next to tcq_egress_pull_retained and _evicted_total.
func TestPullLogGauges(t *testing.T) {
	const n = 100000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	intStream(t, e, "s", "a", "b", "c")
	q, err := e.Register(`SELECT c, b, a FROM s WHERE a >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := e.Register(`SELECT a FROM s WHERE a < 0`)
	if err != nil {
		t.Fatal(err)
	}
	row := tuple.New(tuple.Int(0), tuple.Int(0), tuple.Int(0))
	for i := 0; i < n; i++ {
		row.Vals[0], row.Vals[1], row.Vals[2] = tuple.Int(int64(i)), tuple.Int(int64(i%1000)), tuple.Int(-int64(i))
		if err := e.Feed("s", row); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, q, n)
	gauge := func(name string, q *RunningQuery) float64 {
		return metricValue(t, e, fmt.Sprintf(`%s{query="%d"}`, name, q.ID))
	}
	retained, evicted := gauge("tcq_egress_pull_retained", q), gauge("tcq_egress_pull_evicted_total", q)
	if retained != 1<<16 || retained+evicted != n {
		t.Errorf("retained %v + evicted %v, want 65536 + %d", retained, evicted, n-1<<16)
	}
	bytes := gauge("tcq_egress_pull_bytes", q)
	t.Logf("%.1f bytes of pull log per retained row", bytes/retained)
	if bytes/retained >= 32 {
		t.Errorf("tcq_egress_pull_bytes = %v: %.1f bytes a row, want under 32", bytes, bytes/retained)
	}
	if b := gauge("tcq_egress_pull_bytes", idle); b != 0 {
		t.Errorf("a query with no result holds %v bytes of pull log, want 0", b)
	}
}

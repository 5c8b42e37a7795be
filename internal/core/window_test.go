package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

const tickSyms = 8

func tickSchema() *tuple.Schema {
	return tuple.NewSchema("ticks",
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt})
}

// newTickEngine creates ticks(ts, sym, v) under physical time (TIMECOL ts)
// or, with timeCol -1, logical time (windows over arrival sequence numbers).
func newTickEngine(t testing.TB, timeCol int) *Engine {
	t.Helper()
	e := NewEngine(Options{EOs: 2})
	if err := e.CreateStream("ticks", tickSchema(), timeCol); err != nil {
		t.Fatal(err)
	}
	return e
}

// feedTicks feeds tickSyms rows per day: sym 0..tickSyms-1, v = day.
func feedTicks(t testing.TB, e *Engine, fromDay, toDay int64) {
	t.Helper()
	for d := fromDay; d <= toDay; d++ {
		for s := int64(0); s < tickSyms; s++ {
			if err := e.Feed("ticks", tuple.New(tuple.Time(d), tuple.Int(s), tuple.Int(d))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fetchWhileFiring feeds days 1..days to a query on ticks while a second
// goroutine calls check after every Fetch, and returns every row fetched
// once the query is done. check runs off the test goroutine: t.Error only.
func fetchWhileFiring(t *testing.T, e *Engine, q *RunningQuery, days int64, check func(results int64, fetched []*tuple.Tuple)) []*tuple.Tuple {
	t.Helper()
	return fetchWhile(t, q, func() { feedTicks(t, e, 1, days) }, check)
}

// fetchWhile runs feed, which must leave q finishing, while a second
// goroutine reads Results() and then fetches, over and over.
func fetchWhile(t *testing.T, q *RunningQuery, feed func(), check func(results int64, fetched []*tuple.Tuple)) []*tuple.Tuple {
	t.Helper()
	cur := q.Cursor()
	var all []*tuple.Tuple
	poll := func() {
		n := q.Results()
		rows, err := q.Fetch(cur)
		if err != nil {
			t.Error(err)
		}
		all = append(all, rows...)
		check(n, rows)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !q.Done() {
			poll()
		}
		poll()
	}()
	feed()
	q.Wait()
	wg.Wait()
	return all
}

// TestResultsNeverAheadOfFetch: a client that read Results() == n can fetch
// n rows — the count moves after the rows are published, not before — for a
// window instance (emitBatch) and for an eddy's self-join, whose rows the
// pull log owns without a subscriber and shares with one.
func TestResultsNeverAheadOfFetch(t *testing.T) {
	neverAhead := func(t *testing.T, q *RunningQuery, want int64, feed func()) {
		var fetched int64
		fetchWhile(t, q, feed, func(results int64, rows []*tuple.Tuple) {
			if fetched += int64(len(rows)); fetched < results {
				t.Errorf("Results() = %d with only %d rows fetchable", results, fetched)
			}
		})
		if fetched != want {
			t.Fatalf("fetched %d rows, want %d", fetched, want)
		}
	}

	t.Run("window", func(t *testing.T) {
		e := newTickEngine(t, 0)
		defer e.Stop()
		q, err := e.Register(`SELECT sym, COUNT(*) FROM ticks GROUP BY sym
			for (t = 3; t <= 400; t++) { WindowIs(ticks, t - 2, t); }`)
		if err != nil {
			t.Fatal(err)
		}
		neverAhead(t, q, 398*tickSyms, func() { feedTicks(t, e, 1, 401) })
	})

	for _, subscribed := range []bool{false, true} {
		t.Run(fmt.Sprintf("eddy/subscribed=%v", subscribed), func(t *testing.T) {
			e := NewEngine(Options{EOs: 2, BatchSize: 8})
			defer e.Stop()
			if err := e.CreateStream("ticks", tickSchema(), 0); err != nil {
				t.Fatal(err)
			}
			q, err := e.Register(`SELECT a.v, b.v FROM ticks a, ticks b WHERE a.sym = b.sym`)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := q.rt.(sharedMember); !ok || q.label != "shared:ticks a+ticks b|1=4" {
				t.Fatalf("query runs on %T as %s, want a member of class ticks a+ticks b|1=4", q.rt, q.label)
			}
			if subscribed {
				q.Subscribe(1)
			}
			// Every day's row of a symbol pairs with every day's, itself
			// included: days² results per symbol.
			const days = 40
			want := int64(tickSyms * days * days)
			neverAhead(t, q, want, func() {
				feedTicks(t, e, 1, days)
				waitFor(t, "the self-join's results", func() bool { return q.Results() >= want })
				if err := e.Deregister(q.ID); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// TestWindowInstanceAtomic: an instance reaches the pull log as one batch,
// so a Fetch racing the fires returns whole instances only — every group of
// an instance, or none of them.
func TestWindowInstanceAtomic(t *testing.T) {
	e := newTickEngine(t, 0)
	defer e.Stop()
	q, err := e.Register(`SELECT sym, COUNT(*) FROM ticks GROUP BY sym
		for (t = 3; t <= 400; t++) { WindowIs(ticks, t - 2, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	all := fetchWhileFiring(t, e, q, 401, func(_ int64, rows []*tuple.Tuple) {
		perT := map[int64]int{}
		for _, r := range rows {
			perT[r.TS]++
		}
		for T, n := range perT {
			if n != tickSyms {
				t.Errorf("a Fetch returned %d of instance %d's %d rows", n, T, tickSyms)
			}
		}
	})
	if want := 398 * tickSyms; len(all) != want {
		t.Fatalf("fetched %d rows, want %d", len(all), want)
	}
}

// TestWindowRowsNotAliased: SELECT * emits the buffered rows themselves, and
// each sits in span overlapping instances. The rows a client holds for
// instance i must still say TS = T_i after the later instances fired, and
// every instance must still see its whole window (under physical time a
// rewritten TS would be a rewritten sort key).
func TestWindowRowsNotAliased(t *testing.T) {
	const span, lastT = 4, 60
	for _, tc := range []struct {
		name    string
		timeCol int
		perUnit int64 // rows per unit of window time
	}{
		{"physical", 0, tickSyms},
		{"logical", -1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTickEngine(t, tc.timeCol)
			defer e.Stop()
			q, err := e.Register(fmt.Sprintf(`SELECT * FROM ticks
				for (t = %d; t <= %d; t++) { WindowIs(ticks, t - %d, t); }`, span, lastT, span-1))
			if err != nil {
				t.Fatal(err)
			}
			held := fetchWhileFiring(t, e, q, lastT+1, func(int64, []*tuple.Tuple) {})
			perT := map[int64]int64{}
			for _, r := range held {
				perT[r.TS]++
				// A row's window time: its day, or its arrival number.
				at := r.Vals[0].AsInt()
				if tc.timeCol < 0 {
					at = r.Seq
				}
				if at < r.TS-span+1 || at > r.TS {
					t.Fatalf("a row of window time %d is stamped instance %d (span %d)", at, r.TS, span)
				}
			}
			for T := int64(span); T <= lastT; T++ {
				if perT[T] != span*tc.perUnit {
					t.Errorf("instance %d holds %d rows, want %d", T, perT[T], span*tc.perUnit)
				}
			}
		})
	}
}

// slidingAvg is a grouped AVG over the last span units of ticks, every 100.
func slidingAvg(span int64) string {
	return fmt.Sprintf(`SELECT sym, AVG(v) FROM ticks GROUP BY sym
		for (t = %d; ; t += 100) { WindowIs(ticks, t - %d, t); }`, span, span-1)
}

// handFilled registers an unbounded query on an engine that is then stopped with nothing fed — the runtime has fired nothing and
// its DU will not step again — and absorbs rows for window times 1..span by
// hand, so the test goroutine may fire rt.loop.At(span) as often as it likes
// over a buffer nothing else touches.
func handFilled(t testing.TB, query string, span int64, row func(ts int64) *tuple.Tuple) (*windowRuntime, *RunningQuery) {
	t.Helper()
	e := newTickEngine(t, 0)
	q, err := e.Register(query)
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	rt := q.rt.(*windowRuntime)
	batch := make([]*tuple.Tuple, 0, span)
	for ts := int64(1); ts <= span; ts++ {
		r := row(ts)
		r.TS, r.Seq = ts, ts
		batch = append(batch, r)
	}
	rt.absorb(0, batch)
	return rt, q
}

// TestWindowAdmitsOncePerTuple: a tuple is filtered and folded into its pane
// when it arrives, once, however many overlapping instances read it;
// absorbing allocates nothing once the panes are warm, and a fire allocates
// for its groups, not for its rows or its panes.
func TestWindowAdmitsOncePerTuple(t *testing.T) {
	const span, extra = 10, 90
	e := newTickEngine(t, 0)
	defer e.Stop()
	q, err := e.Register(fmt.Sprintf(`SELECT sym, AVG(v) FROM ticks GROUP BY sym
		for (t = %d; t < %d; t++) { WindowIs(ticks, t - %d, t); }`, span, span+extra, span-1))
	if err != nil {
		t.Fatal(err)
	}
	feedTicks(t, e, 1, span+extra)
	q.Wait()
	rt := q.rt.(*windowRuntime)
	if rt.panes == nil {
		t.Fatal("sliding grouped AVG is not on the pane path")
	}
	// The last instance closed at day span+extra's first row, and a finished
	// loop takes nothing more in: days 1..span+extra-1, every row once.
	want := int64((span + extra - 1) * tickSyms)
	a, m, sc := rt.absorbed[0].Load(), rt.admitted[0].Load(), rt.scanned.Load()
	if a != want || m != want || sc != want {
		t.Errorf("absorbed %d, admitted %d, scanned %d, want %d each: every tuple sits in %d instances and is read once",
			a, m, sc, want, span)
	}
	// The loop ended at its last fire: the panes of that instance remain.
	if h := rt.held[0].Load(); h != rt.panes.Rows() || h != span*tickSyms {
		t.Errorf("held gauge %d, live panes hold %d rows, a window is %d rows", h, rt.panes.Rows(), span*tickSyms)
	}

	row := func(ts int64) *tuple.Tuple {
		return tuple.New(tuple.Time(ts), tuple.Int(ts%tickSyms), tuple.Int(ts))
	}
	fireAllocs := func(span int64) float64 {
		rt, _ := handFilled(t, slidingAvg(span), span, row)
		if h := rt.held[0].Load(); h != span {
			t.Fatalf("span %d: panes hold %d rows", span, h)
		}
		inst := rt.loop.At(span)
		return testing.AllocsPerRun(50, func() { rt.fire(inst) })
	}
	short, long := fireAllocs(100), fireAllocs(5000)
	// Eight groups per fire in both, so both pull logs grow alike.
	if long > short {
		t.Errorf("a fire over 5000 rows allocates %.0f times, over 100 rows %.0f: per-row or per-pane work is back in fire", long, short)
	}

	// Steady-state absorb: the same hundred rows again and again into live
	// panes — read in place, no new group, no new pane.
	rt, _ = handFilled(t, slidingAvg(100), 100, row)
	batch := make([]*tuple.Tuple, 100)
	for i := range batch {
		batch[i] = row(int64(i) + 1)
		batch[i].TS = int64(i) + 1
	}
	if n := testing.AllocsPerRun(100, func() { rt.absorb(0, batch) }); n != 0 {
		t.Errorf("absorbing %d rows into warm panes allocates %.1f times", len(batch), n)
	}
}

// TestWindowSelectionPreloadedAndLive: admission at arrival applies the
// selections the same way to preloaded history and to live tuples; rejected
// tuples still move time on but are not held.
func TestWindowSelectionPreloadedAndLive(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	feedStocks(t, e, 1, 10) // history: instances 4 and 8, part of 12
	q, err := e.Register(`SELECT COUNT(*), MAX(closingPrice) FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		for (t = 4; t <= 20; t += 4) { WindowIs(ClosingStockPrices, t - 3, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 11, 21)
	q.Wait()
	res, err := q.Fetch(q.Cursor())
	if err != nil || len(res) != 5 {
		t.Fatalf("fetched %d instances (err %v), want 5", len(res), err)
	}
	for i, r := range res {
		T := int64(4 * (i + 1))
		// IBM's rows (price day+100) are rejected on both paths.
		if r.TS != T || r.Vals[0].AsInt() != 4 || r.Vals[1].AsFloat() != float64(T) {
			t.Errorf("instance %d = %s, want COUNT 4 MAX %d", T, rowKey(r), T)
		}
	}
	// Days 1..20: the loop's last instance closed at day 21's first row
	// (MSFT), and a finished loop absorbs nothing after it, whichever drain
	// batch IBM's day-21 row lands in.
	rt := q.rt.(*windowRuntime)
	if a, m := rt.absorbed[0].Load(), rt.admitted[0].Load(); a != 40 || m != 20 {
		t.Errorf("absorbed %d admitted %d, want 40 and 20", a, m)
	}
}

// rowKey renders one result row including its timestamp.
func rowKey(t *tuple.Tuple) string {
	return fmt.Sprintf("ts=%d %v", t.TS, t.Vals)
}

// fetchAll waits for want results, then drains the pull cursor.
func fetchAll(t *testing.T, q *RunningQuery, want int) []string {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d results", want), func() bool { return q.Results() >= int64(want) })
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = rowKey(r)
	}
	return out
}

func assertSameSequence(t *testing.T, name string, base, got []string, bs int) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("%s: BatchSize=%d emitted %d rows, BatchSize=1 emitted %d",
			name, bs, len(got), len(base))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("%s: BatchSize=%d row %d = %q, BatchSize=1 = %q",
				name, bs, i, got[i], base[i])
		}
	}
}

// TestWindowedOutputIsAFunctionOfArrivalOrder is the ROADMAP item 0 pin: one
// fixed reordered arrival — stragglers up to three days behind, two rows
// per timestamp — must yield byte-identical windowed output at every
// BatchSize and EO count, and on every repeat. Firing is decided at the
// arrival position, so where a drain batch happens to end (which is what
// BatchSize, EOs and scheduling change) cannot move a straggler into or
// out of an instance.
func TestWindowedOutputIsAFunctionOfArrivalOrder(t *testing.T) {
	const days, lastT = 1500, 1400
	rng := rand.New(rand.NewSource(7))
	var arrival []*tuple.Tuple
	for d := int64(1); d <= days; d++ {
		arrival = append(arrival,
			tuple.New(tuple.Time(d), tuple.String_("MSFT"), tuple.Float(float64(d))),
			tuple.New(tuple.Time(d), tuple.String_("IBM"), tuple.Float(float64(d+100))))
	}
	for i := range arrival {
		if j := i + rng.Intn(7); rng.Intn(4) == 0 && j < len(arrival) {
			arrival[i], arrival[j] = arrival[j], arrival[i]
		}
	}
	run := func(bs, eos int) []string {
		e := NewEngine(Options{EOs: eos, BatchSize: bs})
		defer e.Stop()
		if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
			t.Fatal(err)
		}
		q, err := e.Register(fmt.Sprintf(`SELECT AVG(closingPrice), COUNT(*) FROM ClosingStockPrices
			for (t = 10; t <= %d; t++) { WindowIs(ClosingStockPrices, t - 9, t); }`, lastT))
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range arrival {
			if err := e.Feed("ClosingStockPrices", tuple.New(tp.Vals...)); err != nil {
				t.Fatal(err)
			}
		}
		q.Wait()
		return fetchAll(t, q, lastT-9)
	}
	base := run(1, 1)
	for _, bs := range []int{1, 7, 64} {
		for _, eos := range []int{1, 2, 4} {
			for rep := 0; rep < 3; rep++ {
				assertSameSequence(t, fmt.Sprintf("EOs=%d rep=%d", eos, rep), base, run(bs, eos), bs)
			}
		}
	}
}

// BenchmarkWindowFire measures the hop between a closed window and the
// client's log: one instance of a sliding 1,000/100 window over 50 groups —
// ten 100-row panes combined — delivered with the pull log already past its
// cap.
func BenchmarkWindowFire(b *testing.B) {
	const span, syms = 1000, 50
	rt, q := handFilled(b, slidingAvg(span), span, func(ts int64) *tuple.Tuple {
		return tuple.New(tuple.Time(ts), tuple.Int(ts%syms), tuple.Int(ts))
	})
	inst := rt.loop.At(span)
	for q.pull.Len() < 1<<16 {
		rt.fire(inst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.fire(inst)
	}
	b.ReportMetric(float64(rt.panes.Panes()), "panes/op")
}

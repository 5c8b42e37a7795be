package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// The batching knob must be purely a mechanical granularity choice
// (§4.3): the same plan over the same input produces the same output at
// every BatchSize, with BatchSize 1 recovering exact per-tuple behavior.
// Ordered plans are compared as exact sequences; join plans (whose
// SteM-probe interleaving legitimately reorders matches) as multisets.

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

// runStockQuery runs one query over the deterministic stock feed at the
// given BatchSize and returns the result rows in emission order.
func runStockQuery(t *testing.T, bs int, query string, want int) []string {
	t.Helper()
	e := NewEngine(Options{EOs: 2, BatchSize: bs})
	defer e.Stop()
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register(query)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 40)
	return fetchAll(t, q, want)
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

// TestBatchEquivalenceOrderedPlans: selection (shared CACQ path), DISTINCT
// (eddy path), and a sliding window aggregate (window runtime) each emit
// the identical sequence at every batch size.
func TestBatchEquivalenceOrderedPlans(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  int
	}{
		// Shared-class path: plain selection, order-preserving.
		{"SharedSelection",
			`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'MSFT' AND closingPrice > 5`,
			35},
		// Eddy path: DISTINCT disqualifies sharing; MSFT prices 1..40 are
		// already distinct so every passing row emits, in arrival order.
		{"EddyDistinct",
			`SELECT DISTINCT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'`,
			40},
		// Window runtime: sliding average over a closed loop.
		{"SlidingAvg",
			`SELECT AVG(closingPrice) FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'
			 for (t = 10; t < 30; t++) { WindowIs(ClosingStockPrices, t - 4, t); }`,
			20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runStockQuery(t, 1, tc.query, tc.want)
			for _, bs := range []int{8, 64} {
				got := runStockQuery(t, bs, tc.query, tc.want)
				assertSameSequence(t, tc.name, base, got, bs)
			}
		})
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

// joinShapes covers five two-stream equijoin shapes — a bare equijoin, a
// selection, a conjunction of selections on both sides, SELECT * and a
// self-join (two FROM positions over one stream) — and four over three
// streams, which the routing rule gives a probe-order-planning selectivity
// eddy: a chain on two keys, a cyclic triangle (pruning after one probe must
// not lose the S⋈R→T path), a chain with a selection on its middle stream,
// and a join on one key class, the one three-stream shape whose eddy can be
// hash-partitioned.
var joinShapes = []string{
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 10`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND R.w < 100 AND S.v > 2`,
	`SELECT * FROM S, R WHERE S.k = R.k`,
	`SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k`,
	`SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w`,
	`SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w AND T.k = S.k`,
	`SELECT S.v, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w AND R.w < 50`,
	`SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.k = T.k`,
}

// oneKeyClassShape indexes the joinShapes entry partitioned at Workers > 1.
const oneKeyClassShape = 8

// createSRT adds T(k, w, x) to the S/R pair for the three-stream shapes.
func createSRT(t testing.TB, e *Engine) {
	t.Helper()
	createSR(t, e)
	intStream(t, e, "T", "k", "w", "x")
}

// joinShapeFeed builds deterministic inputs plus each joinShapes entry's
// expected result count, evaluated in plain Go, independent of the engine.
func joinShapeFeed() (sRows, rRows, tRows []*tuple.Tuple, want []int) {
	for i := int64(0); i < 40; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%7), tuple.Int(i)))
	}
	for j := int64(0); j < 25; j++ {
		rRows = append(rRows, tuple.New(tuple.Int(j%7), tuple.Int(j*10)))
	}
	for m := int64(0); m < 35; m++ {
		tRows = append(tRows, tuple.New(tuple.Int(m%7), tuple.Int(m%5*20), tuple.Int(m)))
	}
	col := func(t *tuple.Tuple, i int) int64 { return t.Vals[i].AsInt() }
	want = make([]int, len(joinShapes))
	for _, s := range sRows {
		for _, r := range rRows {
			if col(s, 0) != col(r, 0) {
				continue
			}
			want[0]++
			if col(s, 1) > 10 {
				want[1]++
			}
			if col(r, 1) < 100 && col(s, 1) > 2 {
				want[2]++
			}
			want[3]++
			for _, x := range tRows {
				if col(r, 1) == col(x, 1) {
					want[5]++
					if col(x, 0) == col(s, 0) {
						want[6]++
					}
					if col(r, 1) < 50 {
						want[7]++
					}
				}
				if col(r, 0) == col(x, 0) {
					want[8]++
				}
			}
		}
	}
	for _, a := range sRows {
		for _, b := range sRows {
			if col(a, 0) == col(b, 0) {
				want[4]++
			}
		}
	}
	return sRows, rRows, tRows, want
}

// runJoinShapes registers every joinShapes entry on one engine at the
// given BatchSize and Workers, replays the feed, and returns each query's
// sorted result multiset. It checks each eddy routes by the rule: per-hop
// lottery under three streams, selectivity planning from three on, and at
// Workers > 1 the one-key-class shape planning on its partitioned shards.
func runJoinShapes(t *testing.T, bs, workers int) [][]string {
	t.Helper()
	e := NewEngine(Options{EOs: 2, BatchSize: bs, Workers: workers})
	defer e.Stop()
	createSRT(t, e)
	var qs []*RunningQuery
	for _, text := range joinShapes {
		q, err := e.Register(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := q.rt.(*eddyRuntime); !ok {
			t.Fatalf("%q runs on %T, want a private eddy", text, q.rt)
		}
		qs = append(qs, q)
	}
	sRows, rRows, tRows, want := joinShapeFeed()
	if err := errors.Join(e.FeedMany("S", sRows), e.FeedMany("R", rRows), e.FeedMany("T", tRows)); err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(qs))
	for i, q := range qs {
		waitFor(t, fmt.Sprintf("query %d: %d results", i, want[i]),
			func() bool { return q.Results() >= int64(want[i]) })
		res, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(res))
		for k, r := range res {
			// TS of a match depends on probe arrival order, which batching
			// may shift; compare the joined values only.
			rows[k] = fmt.Sprint(r.Vals)
		}
		sort.Strings(rows)
		out[i] = rows

		qt := q.Telemetry()
		if planned := len(joinStreams(q.Plan)) >= 3; planned != (qt.Policy == "selectivity" && qt.Stats.Orders > 0) {
			t.Errorf("BatchSize=%d Workers=%d: %q routes by %s with %d plans", bs, workers, joinShapes[i], qt.Policy, qt.Stats.Orders)
		}
		if _, sharded := q.ParallelStats(); i == oneKeyClassShape && sharded != (workers > 1) {
			t.Errorf("Workers=%d: %q partitioned=%v", workers, joinShapes[i], sharded)
		}
	}
	return out
}

// TestBatchEquivalenceJoinMultiset: every equijoin shape produces its
// plain-Go result count at BatchSize 1, and the identical multiset of
// matches at every larger batch size and on partitioned shards.
func TestBatchEquivalenceJoinMultiset(t *testing.T) {
	_, _, _, want := joinShapeFeed()
	base := runJoinShapes(t, 1, 1)
	for i, rows := range base {
		if len(rows) != want[i] {
			t.Fatalf("BatchSize=1: %q produced %d rows, want %d", joinShapes[i], len(rows), want[i])
		}
	}
	for _, run := range []struct{ bs, workers int }{{8, 1}, {32, 1}, {1, 4}, {8, 4}, {32, 4}} {
		got := runJoinShapes(t, run.bs, run.workers)
		for i := range base {
			if len(got[i]) != len(base[i]) {
				t.Fatalf("BatchSize=%d Workers=%d: %q produced %d rows, want %d",
					run.bs, run.workers, joinShapes[i], len(got[i]), len(base[i]))
			}
			for k := range base[i] {
				if base[i][k] != got[i][k] {
					t.Fatalf("BatchSize=%d Workers=%d: %q multiset diverges at %d: %q vs %q",
						run.bs, run.workers, joinShapes[i], k, got[i][k], base[i][k])
				}
			}
		}
	}
}

package core

import (
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

// runJoinQuery runs the S ⋈ R equijoin at the given BatchSize and returns
// the sorted multiset of result rows.
func runJoinQuery(t *testing.T, bs int) []string {
	t.Helper()
	e := NewEngine(Options{EOs: 1, BatchSize: bs})
	defer e.Stop()
	createSR(t, e)
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		e.Feed("S", tuple.New(tuple.Int(i%5), tuple.Int(i)))
	}
	for i := int64(0); i < 20; i++ {
		e.Feed("R", tuple.New(tuple.Int(i%5), tuple.Int(i*10)))
	}
	// Per key: 6 S rows x 4 R rows over 5 keys = 120 matches.
	waitFor(t, "120 join results", func() bool { return q.Results() >= 120 })
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		// TS of a match depends on probe arrival order, which batching may
		// shift; compare the joined values only.
		out[i] = fmt.Sprint(r.Vals)
	}
	sort.Strings(out)
	return out
}

// TestBatchEquivalenceJoinMultiset: the equijoin produces the identical
// multiset of matches at every batch size.
func TestBatchEquivalenceJoinMultiset(t *testing.T) {
	base := runJoinQuery(t, 1)
	if len(base) != 120 {
		t.Fatalf("baseline join produced %d rows, want 120", len(base))
	}
	for _, bs := range []int{32, 128} {
		got := runJoinQuery(t, bs)
		if len(got) != len(base) {
			t.Fatalf("BatchSize=%d: %d rows, want %d", bs, len(got), len(base))
		}
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("BatchSize=%d: multiset diverges at %d: %q vs %q",
					bs, i, got[i], base[i])
			}
		}
	}
}

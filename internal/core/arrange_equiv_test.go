package core

import (
	"fmt"
	"sort"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// Differential harness for shared arrangements: the SharedArrangements knob
// must be purely an execution-strategy choice. The same seeded workloads
// (the stock generator behind E13's churn experiment and the deterministic
// S/R equijoin feed) replayed with the knob on and off must produce, for
// every registered query, identical result sequences (order-preserving
// selection classes) and identical result multisets (equijoins, whose
// match order legitimately depends on probe interleaving) — across
// Workers ∈ {1, 4} × BatchSize ∈ {1, 32}.

// arrangeWorkloadResult captures every query's output under one engine
// configuration.
type arrangeWorkloadResult struct {
	selections [][]string // per selection query, in emission order
	joins      [][]string // per join query, sorted (multiset)
}

// selQueries are overlapping single-stream selections sharing one CACQ
// class; their expected counts are computed from the generated feed.
var selQueries = []string{
	`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'`,
	`SELECT stockSymbol, closingPrice FROM ClosingStockPrices WHERE closingPrice > 50`,
	`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'IBM' AND closingPrice < 90`,
}

// joinQueries are overlapping equijoins on the same stream pair and join
// column — exactly the shape that shares one SteM build per stream under
// SharedArrangements.
var joinQueries = []string{
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 10`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND R.w < 100`,
}

// arrangeFeed builds the deterministic inputs and the per-query expected
// result counts (evaluated in plain Go, independent of the engine).
func arrangeFeed() (stocks []*tuple.Tuple, sRows, rRows []*tuple.Tuple, selWant, joinWant []int) {
	gen := workload.NewStockGenerator(99, nil)
	stocks = gen.Take(30 * len(workload.Symbols))
	selWant = make([]int, len(selQueries))
	for _, st := range stocks {
		sym := st.Vals[1].AsString()
		price := st.Vals[2].AsFloat()
		if sym == "MSFT" {
			selWant[0]++
		}
		if price > 50 {
			selWant[1]++
		}
		if sym == "IBM" && price < 90 {
			selWant[2]++
		}
	}
	for i := int64(0); i < 30; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%5), tuple.Int(i)))
	}
	for j := int64(0); j < 20; j++ {
		rRows = append(rRows, tuple.New(tuple.Int(j%5), tuple.Int(j*10)))
	}
	joinWant = make([]int, len(joinQueries))
	for _, s := range sRows {
		for _, r := range rRows {
			if s.Vals[0].AsInt() != r.Vals[0].AsInt() {
				continue
			}
			joinWant[0]++
			if s.Vals[1].AsInt() > 10 {
				joinWant[1]++
			}
			if r.Vals[1].AsInt() < 100 {
				joinWant[2]++
			}
		}
	}
	return stocks, sRows, rRows, selWant, joinWant
}

// runArrangeWorkload replays the seeded workloads through one engine
// configuration and collects every query's results.
func runArrangeWorkload(t *testing.T, shared bool, workers, bs int) arrangeWorkloadResult {
	t.Helper()
	e := NewEngine(Options{EOs: 2, Workers: workers, BatchSize: bs, SharedArrangements: shared})
	defer e.Stop()
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	createSR(t, e)

	var selQ, joinQ []*RunningQuery
	for _, text := range selQueries {
		q, err := e.Register(text)
		if err != nil {
			t.Fatal(err)
		}
		selQ = append(selQ, q)
	}
	for _, text := range joinQueries {
		q, err := e.Register(text)
		if err != nil {
			t.Fatal(err)
		}
		joinQ = append(joinQ, q)
	}
	if shared {
		// The join queries must actually be sharing: one class, one
		// arrangement per stream per shard backing all three.
		if n := e.SharedQueryCount("S+R|0=2"); n != len(joinQuery(joinQ)) {
			t.Fatalf("shared join class has %d members, want %d", n, len(joinQ))
		}
		if n, _, _, _ := e.arrReg.Totals(); n == 0 {
			t.Fatalf("SharedArrangements on but no arrangements registered")
		}
	}

	stocks, sRows, rRows, selWant, joinWant := arrangeFeed()
	if err := e.FeedMany("ClosingStockPrices", stocks); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedMany("S", sRows); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedMany("R", rRows); err != nil {
		t.Fatal(err)
	}

	var out arrangeWorkloadResult
	for i, q := range selQ {
		rows := fetchAll(t, q, selWant[i])
		out.selections = append(out.selections, rows)
	}
	for i, q := range joinQ {
		q := q
		waitFor(t, fmt.Sprintf("join query %d: %d results", i, joinWant[i]),
			func() bool { return q.Results() >= int64(joinWant[i]) })
		res, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(res))
		for k, r := range res {
			// Match TS depends on probe arrival order; compare values only.
			rows[k] = fmt.Sprint(r.Vals)
		}
		sort.Strings(rows)
		out.joins = append(out.joins, rows)
	}
	return out
}

// joinQuery is a trivial identity helper keeping the member-count check
// readable.
func joinQuery(qs []*RunningQuery) []*RunningQuery { return qs }

func assertArrangeEquivalent(t *testing.T, label string, base, got arrangeWorkloadResult) {
	t.Helper()
	for i := range base.selections {
		if len(base.selections[i]) != len(got.selections[i]) {
			t.Fatalf("%s: selection %d emitted %d rows, baseline %d",
				label, i, len(got.selections[i]), len(base.selections[i]))
		}
		for k := range base.selections[i] {
			if base.selections[i][k] != got.selections[i][k] {
				t.Fatalf("%s: selection %d row %d = %q, baseline %q",
					label, i, k, got.selections[i][k], base.selections[i][k])
			}
		}
	}
	for i := range base.joins {
		if len(base.joins[i]) != len(got.joins[i]) {
			t.Fatalf("%s: join %d produced %d rows, baseline %d",
				label, i, len(got.joins[i]), len(base.joins[i]))
		}
		for k := range base.joins[i] {
			if base.joins[i][k] != got.joins[i][k] {
				t.Fatalf("%s: join %d multiset diverges at %d: %q vs baseline %q",
					label, i, k, got.joins[i][k], base.joins[i][k])
			}
		}
	}
}

// TestArrangeEquivalence replays the workloads through every
// (SharedArrangements, Workers, BatchSize) combination and diffs each
// against the sequential per-tuple legacy baseline.
func TestArrangeEquivalence(t *testing.T) {
	base := runArrangeWorkload(t, false, 1, 1)
	_, _, _, selWant, joinWant := arrangeFeed()
	for i, rows := range base.selections {
		if len(rows) != selWant[i] {
			t.Fatalf("baseline selection %d: %d rows, want %d", i, len(rows), selWant[i])
		}
	}
	for i, rows := range base.joins {
		if len(rows) != joinWant[i] {
			t.Fatalf("baseline join %d: %d rows, want %d", i, len(rows), joinWant[i])
		}
	}
	for _, shared := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, bs := range []int{1, 32} {
				if !shared && workers == 1 && bs == 1 {
					continue // the baseline itself
				}
				label := fmt.Sprintf("shared=%v workers=%d batch=%d", shared, workers, bs)
				t.Run(label, func(t *testing.T) {
					got := runArrangeWorkload(t, shared, workers, bs)
					assertArrangeEquivalent(t, label, base, got)
				})
			}
		}
	}
}

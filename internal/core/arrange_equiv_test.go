package core

import (
	"fmt"
	"sort"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// Differential harness for shared classes: the same seeded workloads (the
// stock generator behind E13's churn experiment and the deterministic S/R
// equijoin feed) replayed at every (shared, Workers, BatchSize) cell must
// give every registered query what arrangeFeed computes in plain Go, whether
// the equijoins share one class or each is its own class's sole member — the exact result
// sequence for the order-preserving selection class, the result multiset
// for the equijoins, whose match order depends on probe interleaving.

// arrangeWorkloadResult captures every query's output under one engine
// configuration.
type arrangeWorkloadResult struct {
	selections [][]string // per selection query, in emission order
	joins      [][]string // per join query, sorted (multiset)
}

// selQueries are overlapping single-stream selections sharing one CACQ
// class.
var selQueries = []string{
	`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'`,
	`SELECT stockSymbol, closingPrice FROM ClosingStockPrices WHERE closingPrice > 50`,
	`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'IBM' AND closingPrice < 90`,
}

// joinQueries are overlapping equijoins on the same stream pair and join
// column: members of one class sharing one SteM build per stream.
var joinQueries = []string{
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 10`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND R.w < 100`,
}

// arrangeFeed builds the deterministic inputs and, evaluated in plain Go
// independently of the engine, every query's reference: each selection's
// rows in feed order (rowKey form) and each join's sorted match values.
func arrangeFeed() (stocks, sRows, rRows []*tuple.Tuple, want arrangeWorkloadResult) {
	gen := workload.NewStockGenerator(99, nil)
	stocks = gen.Take(30 * len(workload.Symbols))
	want.selections = make([][]string, len(selQueries))
	sel := func(i int, st *tuple.Tuple, vals ...tuple.Value) {
		want.selections[i] = append(want.selections[i], fmt.Sprintf("ts=%d %v", st.Vals[0].AsInt(), vals))
	}
	for _, st := range stocks {
		sym, price := st.Vals[1], st.Vals[2]
		if sym.AsString() == "MSFT" {
			sel(0, st, price)
		}
		if price.AsFloat() > 50 {
			sel(1, st, sym, price)
		}
		if sym.AsString() == "IBM" && price.AsFloat() < 90 {
			sel(2, st, price)
		}
	}
	for i := int64(0); i < 30; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%5), tuple.Int(i)))
	}
	for j := int64(0); j < 20; j++ {
		rRows = append(rRows, tuple.New(tuple.Int(j%5), tuple.Int(j*10)))
	}
	want.joins = make([][]string, len(joinQueries))
	for _, s := range sRows {
		for _, r := range rRows {
			if s.Vals[0].AsInt() != r.Vals[0].AsInt() {
				continue
			}
			match := fmt.Sprint([]tuple.Value{s.Vals[1], r.Vals[1]})
			want.joins[0] = append(want.joins[0], match)
			if s.Vals[1].AsInt() > 10 {
				want.joins[1] = append(want.joins[1], match)
			}
			if r.Vals[1].AsInt() < 100 {
				want.joins[2] = append(want.joins[2], match)
			}
		}
	}
	for _, rows := range want.joins {
		sort.Strings(rows)
	}
	return stocks, sRows, rRows, want
}

// runArrangeWorkload replays the seeded workloads through one engine
// configuration and collects every query's results. With shared, all the
// join queries are members of one class; without, each join query runs in
// an engine of its own as the sole member of its class.
func runArrangeWorkload(t *testing.T, shared bool, workers, bs int) (got, want arrangeWorkloadResult) {
	t.Helper()
	if shared {
		return runArrangeJoins(t, []int{0, 1, 2}, workers, bs)
	}
	for i := range joinQueries {
		g, w := runArrangeJoins(t, []int{i}, workers, bs)
		got.selections, want.selections = g.selections, w.selections
		got.joins = append(got.joins, g.joins...)
		want.joins = append(want.joins, w.joins...)
	}
	return got, want
}

// runArrangeJoins replays the seeded workloads through one engine that
// registers every selection query and the join queries at the given
// indices, all of which must belong to one class.
func runArrangeJoins(t *testing.T, joinIdx []int, workers, bs int) (got, want arrangeWorkloadResult) {
	t.Helper()
	e := NewEngine(Options{EOs: 2, Workers: workers, BatchSize: bs})
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
	for _, i := range joinIdx {
		q, err := e.Register(joinQueries[i])
		if err != nil {
			t.Fatal(err)
		}
		joinQ = append(joinQ, q)
	}
	// The join queries must actually be class members: one class, one
	// arrangement per stream per shard backing all of them.
	if n := e.SharedQueryCount("S+R|0=2"); n != len(joinQ) {
		t.Fatalf("join class has %d members, want %d", n, len(joinQ))
	}
	if n, _, _, _ := e.arrReg.Totals(); n == 0 {
		t.Fatalf("a join class runs but no arrangements are registered")
	}

	stocks, sRows, rRows, ref := arrangeFeed()
	want.selections = ref.selections
	for _, i := range joinIdx {
		want.joins = append(want.joins, ref.joins[i])
	}
	if _, err := e.FeedMany("ClosingStockPrices", stocks); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedMany("S", sRows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedMany("R", rRows); err != nil {
		t.Fatal(err)
	}

	for i, q := range selQ {
		got.selections = append(got.selections, fetchAll(t, q, len(want.selections[i])))
	}
	for i, q := range joinQ {
		waitResults(t, q, int64(len(want.joins[i])))
		rows := fetchJoinRows(t, q)
		sort.Strings(rows)
		got.joins = append(got.joins, rows)
	}
	return got, want
}

func assertArrangeEquivalent(t *testing.T, label string, want, got arrangeWorkloadResult) {
	t.Helper()
	for i := range want.selections {
		if len(want.selections[i]) != len(got.selections[i]) {
			t.Fatalf("%s: selection %d emitted %d rows, want %d",
				label, i, len(got.selections[i]), len(want.selections[i]))
		}
		for k := range want.selections[i] {
			if want.selections[i][k] != got.selections[i][k] {
				t.Fatalf("%s: selection %d row %d = %q, want %q",
					label, i, k, got.selections[i][k], want.selections[i][k])
			}
		}
	}
	for i := range want.joins {
		if len(want.joins[i]) != len(got.joins[i]) {
			t.Fatalf("%s: join %d produced %d rows, want %d",
				label, i, len(got.joins[i]), len(want.joins[i]))
		}
		for k := range want.joins[i] {
			if want.joins[i][k] != got.joins[i][k] {
				t.Fatalf("%s: join %d multiset diverges at %d: %q, want %q",
					label, i, k, got.joins[i][k], want.joins[i][k])
			}
		}
	}
}

// TestArrangeEquivalence replays the workloads at every (shared, Workers,
// BatchSize) cell and diffs each against the plain-Go reference: shared
// puts the three join queries in one class, unshared gives each a class of
// one member.
func TestArrangeEquivalence(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, bs := range []int{1, 32} {
				label := fmt.Sprintf("shared=%v workers=%d batch=%d", shared, workers, bs)
				t.Run(label, func(t *testing.T) {
					got, want := runArrangeWorkload(t, shared, workers, bs)
					assertArrangeEquivalent(t, label, want, got)
				})
			}
		}
	}
}

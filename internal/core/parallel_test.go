package core

import (
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/chaos"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

func newParStockEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{EOs: 2, Workers: workers, BatchSize: 8})
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	return e
}

// wantShards asserts where a query's eddy runs, through the observable
// surface: ParallelStats reports ok with the worker count when the host is
// hash-partitioned, and !ok when the eddy runs inline on the stepping DU
// (shards == 0).
func wantShards(t *testing.T, q *RunningQuery, shards int) {
	t.Helper()
	ps, ok := q.ParallelStats()
	if ok != (shards > 0) || ps.Workers != shards {
		t.Fatalf("query %d: ParallelStats ok=%v workers=%d, want %d shards", q.ID, ok, ps.Workers, shards)
	}
	if _, ok := q.EddyStats(); !ok {
		t.Fatalf("query %d: no eddy behind an unwindowed query", q.ID)
	}
}

// TestParallelRuntimeSelection: Workers=1 keeps every class on its inline
// eddy; Workers>1 puts the partitioning stage in front of partitionable
// classes and leaves non-partitionable ones (join edges spanning two key
// classes) inline.
func TestParallelRuntimeSelection(t *testing.T) {
	seq := newParStockEngine(t, 1)
	defer seq.Stop()
	q, err := seq.Register(`SELECT MAX(closingPrice) FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	wantShards(t, q, 0)

	par := newParStockEngine(t, 2)
	defer par.Stop()
	q2, err := par.Register(`SELECT MAX(closingPrice) FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	wantShards(t, q2, 2)

	// Two equivalence classes (A.k=B.k, B.j=C.j) cannot partition; the
	// engine must fall back to the sequential eddy even with Workers>1.
	intStream(t, par, "A", "k", "va")
	intStream(t, par, "B", "k", "j")
	intStream(t, par, "C", "j", "vc")
	q3, err := par.Register(`SELECT A.va, C.vc FROM A, B, C WHERE A.k = B.k AND B.j = C.j`)
	if err != nil {
		t.Fatal(err)
	}
	wantShards(t, q3, 0)
}

// TestParallelRunningMaxMatchesSequential runs the same unwindowed
// aggregate on a sequential and a parallel engine and requires the exact
// same sequence of running values: the ordered merge must reproduce the
// sequential emission order for single-stream plans at any worker count.
func TestParallelRunningMaxMatchesSequential(t *testing.T) {
	const days = 40
	run := func(workers int) []float64 {
		e := newParStockEngine(t, workers)
		defer e.Stop()
		q, err := e.Register(`SELECT MAX(closingPrice) FROM ClosingStockPrices`)
		if err != nil {
			t.Fatal(err)
		}
		feedStocks(t, e, 1, days)
		waitFor(t, "all running-max updates", func() bool {
			return q.Results() == 2*days
		})
		res, _ := q.Fetch(q.Cursor())
		out := make([]float64, len(res))
		for i, r := range res {
			out[i] = r.Vals[0].AsFloat()
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d produced %d values, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d value %d = %v, want %v (order not preserved)",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelUnwindowedJoin runs the equijoin workload from
// TestUnwindowedJoinCQ on a parallel engine: hash partitioning must
// co-locate matching keys so no result is lost or duplicated. The second
// row is experiment E13's workload at its widest setting — eight shards,
// 256-tuple handoffs, 20,000+64 rows — so the race stage drives the whole
// driver → shard queues → workers → merge handoff at volume.
func TestParallelUnwindowedJoin(t *testing.T) {
	for _, tc := range []struct {
		workers, batch     int
		sRows, rRows, keys int64
		want               int64 // Σ over keys of |S_k|·|R_k|
	}{
		{4, 4, 30, 20, 5, 120},         // per key |S|=6, |R|=4
		{8, 256, 20000, 64, 64, 20000}, // one R row per key
	} {
		t.Run(fmt.Sprintf("workers=%d/batch=%d", tc.workers, tc.batch), func(t *testing.T) {
			e := NewEngine(Options{EOs: 1, Workers: tc.workers, BatchSize: tc.batch})
			defer e.Stop()
			createSR(t, e)
			q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
			if err != nil {
				t.Fatal(err)
			}
			wantShards(t, q, tc.workers)
			for i := int64(0); i < tc.sRows; i++ {
				e.Feed("S", tuple.New(tuple.Int(i%tc.keys), tuple.Int(i)))
			}
			for i := int64(0); i < tc.rRows; i++ {
				e.Feed("R", tuple.New(tuple.Int(i%tc.keys), tuple.Int(i)))
			}
			waitFor(t, "the join's results", func() bool { return q.Results() >= tc.want })
			chaos.Real().Sleep(20 * time.Millisecond)
			if q.Results() != tc.want {
				t.Errorf("join results = %d, want %d (duplicates?)", q.Results(), tc.want)
			}
			// Every result must be a genuine key match.
			res, _ := q.Fetch(q.Cursor())
			for _, r := range res {
				if r.Vals[0].AsInt()%tc.keys != r.Vals[1].AsInt()%tc.keys {
					t.Errorf("mismatched join row: %v", r)
				}
			}
			if int64(len(res)) != tc.want {
				t.Errorf("fetched %d rows, want %d", len(res), tc.want)
			}
			if st, ok := q.EddyStats(); !ok || st.Ingested != tc.sRows+tc.rRows {
				t.Errorf("aggregate shard stats = %+v ok=%v, want Ingested=%d", st, ok, tc.sRows+tc.rRows)
			}
		})
	}
}

// TestParallelDistinctUnwindowed: DISTINCT runs on the merge goroutine;
// the set semantics must hold regardless of shard interleaving.
func TestParallelDistinctUnwindowed(t *testing.T) {
	e := newParStockEngine(t, 3)
	defer e.Stop()
	q, err := e.Register(`SELECT DISTINCT stockSymbol FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	wantShards(t, q, 3)
	feedStocks(t, e, 1, 50)
	waitFor(t, "2 distinct symbols", func() bool { return q.Results() == 2 })
	chaos.Real().Sleep(10 * time.Millisecond)
	if q.Results() != 2 {
		t.Errorf("distinct emitted %d", q.Results())
	}
}

// TestParallelSharedClassDelivery: with Workers>1 the shared CACQ class
// runs on the partitioned engine with the ordered merge — members see the
// exact per-stream delivery order, and dynamic membership keeps working.
func TestParallelSharedClassDelivery(t *testing.T) {
	e := newParStockEngine(t, 2)
	defer e.Stop()
	q1, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Register(`SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 103`)
	if err != nil {
		t.Fatal(err)
	}
	if e.SharedQueryCount("ClosingStockPrices") != 2 {
		t.Fatalf("shared members = %d", e.SharedQueryCount("ClosingStockPrices"))
	}
	feedStocks(t, e, 1, 10)
	waitFor(t, "shared deliveries", func() bool {
		return q1.Results() == 10 && q2.Results() == 7
	})
	// Ordered merge: q1's MSFT prices arrive in feed order 1..10.
	res, _ := q1.Fetch(q1.Cursor())
	for i, r := range res {
		if r.Vals[0].AsFloat() != float64(i+1) {
			t.Fatalf("q1 row %d = %v, want %d (order broken)", i, r.Vals[0], i+1)
		}
	}
	if err := e.Deregister(q1.ID); err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 11, 12)
	waitFor(t, "q2 keeps flowing", func() bool { return q2.Results() == 9 })
	if q1.Results() != 10 {
		t.Error("deregistered member kept receiving")
	}
}

// TestParallelDeregisterReleasesRuntime: deregistering a parallel query
// must stop its workers even if its DU never steps again.
func TestParallelDeregisterReleasesRuntime(t *testing.T) {
	e := newParStockEngine(t, 2)
	defer e.Stop()
	q, err := e.Register(`SELECT MAX(closingPrice) FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 5)
	waitFor(t, "updates", func() bool { return q.Results() == 10 })
	if err := e.Deregister(q.ID); err != nil {
		t.Fatal(err)
	}
	// Deregister closes the runtime synchronously: the shard queues are
	// sealed and drained (the package's leakcheck TestMain additionally
	// fails the run if a worker or merge goroutine survives).
	ps, ok := q.ParallelStats()
	if !ok || ps.Workers != 2 {
		t.Fatalf("ParallelStats after deregister ok=%v %+v", ok, ps)
	}
	for shard, depth := range ps.QueueDepths {
		if depth != 0 {
			t.Errorf("shard %d still holds %d tuples after close", shard, depth)
		}
	}
	// A second close is a no-op, and feeding after deregister changes nothing.
	q.rt.close()
	feedStocks(t, e, 6, 8)
	chaos.Real().Sleep(10 * time.Millisecond)
	if q.Results() != 10 {
		t.Errorf("results after deregister = %d", q.Results())
	}
}

// TestParallelMetricsExported: a parallel class exports both the aggregate
// eddy counters (class-key stream label) and the shard-layer series (par
// label), and deregistering its last member removes them all.
func TestParallelMetricsExported(t *testing.T) {
	e := newParStockEngine(t, 2)
	defer e.Stop()
	q, err := e.Register(`SELECT MAX(closingPrice) FROM ClosingStockPrices`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 5)
	waitFor(t, "updates", func() bool { return q.Results() == 10 })
	byName := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range e.Metrics().Snapshot() {
			out[s.Name] = s.Value
		}
		return out
	}
	snap := byName()
	for _, name := range []string{
		`tcq_eddy_ingested_total{stream="ClosingStockPrices"}`,
		`tcq_parallel_workers{par="shared:ClosingStockPrices"}`,
		`tcq_parallel_shard_queue_depth{par="shared:ClosingStockPrices",shard="0"}`,
		"tcq_tuple_pool_gets_total",
		"tcq_engine_workers",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("series %s not exported", name)
		}
	}
	if got := snap[`tcq_eddy_ingested_total{stream="ClosingStockPrices"}`]; got != 10 {
		t.Errorf("aggregate ingested = %v, want 10", got)
	}
	if err := e.Deregister(q.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := byName()[`tcq_parallel_workers{par="shared:ClosingStockPrices"}`]; ok {
		t.Errorf("par series survived deregistration")
	}
}

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
// surface: ParallelStats reports ok with the worker count when its class
// runs on pipeline shards, and !ok when the eddy runs inline on the
// stepping DU (shards == 0).
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

// TestParallelUnwindowedJoin runs a two-stream equijoin on an engine with
// worker shards: the join class stays on one sequential engine, whatever
// Workers says, and loses or duplicates no result. The second row is
// experiment E13's workload at its widest setting — eight workers,
// 256-tuple batches, 20,000+64 rows.
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
			wantShards(t, q, 0)
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
				t.Errorf("eddy stats = %+v ok=%v, want Ingested=%d", st, ok, tc.sRows+tc.rRows)
			}
		})
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
	// closed and drained (the package's leakcheck TestMain additionally
	// fails the run if a worker or merge goroutine survives).
	ps, ok := q.ParallelStats()
	if !ok || ps.Workers != 2 {
		t.Fatalf("ParallelStats after deregister ok=%v %+v", ok, ps)
	}
	for shard, depth := range ps.QueueDepths {
		if depth != 0 {
			t.Errorf("shard %d still holds %d batches after close", shard, depth)
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
// eddy counters (class-key stream label) and the pipeline series (par
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

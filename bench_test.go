// Package-level benchmarks: one testing.B benchmark per experiment in
// DESIGN.md §4 (E1–E12), measuring the per-operation cost of each
// experiment's hot path: each table's core series under `go test -bench`.
// The full parameter sweeps as last run are recorded in EXPERIMENTS.md.
package telegraphcq

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"telegraphcq/internal/baseline"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/flux"
	"telegraphcq/internal/gfilter"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/psoup"
	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
	"telegraphcq/internal/workload"
)

// BenchmarkE1FjordPipeline measures tuple transfer through a pull-queue
// Fjord connection (E1).
func BenchmarkE1FjordPipeline(b *testing.B) {
	for _, capacity := range []int{64, 1024} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			src := fjord.NewConn(fjord.Pull, capacity)
			ident := fjord.Transform(func(t *tuple.Tuple) []*tuple.Tuple {
				return []*tuple.Tuple{t}
			})
			out := fjord.Pipeline(src, fjord.Pull, capacity, ident)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if _, ok := out.Recv(); !ok {
						if out.Drained() {
							return
						}
					}
				}
			}()
			t := tuple.New(tuple.Int(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Send(t)
			}
			src.Close()
			<-done
		})
	}
}

func driftEddy(policy eddy.Policy) (*eddy.Eddy, *tuple.Layout) {
	l := tuple.NewLayout(workload.DriftSchema())
	fA := ops.NewFilter("A", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(10)})
	fB := ops.NewFilter("B", l, expr.Predicate{Col: 1, Op: expr.Lt, Val: tuple.Int(10)})
	return eddy.New(tuple.SingleSource(0), policy, nil, fA, fB), l
}

// BenchmarkE2EddyVsStatic measures per-tuple routing cost of adaptive vs
// static plans on the drift workload (E2).
func BenchmarkE2EddyVsStatic(b *testing.B) {
	cases := []struct {
		name   string
		policy func() eddy.Policy
	}{
		{"static", func() eddy.Policy { return eddy.NewFixedPolicy(0, 1) }},
		{"lottery", func() eddy.Policy { return eddy.NewLotteryPolicy(7) }},
		{"batched64", func() eddy.Policy {
			return eddy.NewBatchingPolicy(eddy.NewLotteryPolicy(7), 64)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e, l := driftEddy(c.policy())
			gen := workload.NewDriftGenerator(42, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Ingest(l.Widen(0, gen.Next()))
			}
		})
	}
}

// BenchmarkE3HybridJoin measures symmetric-join probe cost through SteMs
// (the latency-free leg of E3).
func BenchmarkE3HybridJoin(b *testing.B) {
	l := tuple.NewLayout(
		tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindInt}),
		tuple.NewSchema("T", tuple.Column{Name: "k", Kind: tuple.KindInt}),
	)
	modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 1, window.Logical)
	n := 0
	e := eddy.New(3, eddy.NewLotteryPolicy(1), func(*tuple.Tuple) { n++ }, modS, modT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream := i % 2
		t := l.Widen(stream, tuple.New(tuple.Int(int64(i%1024))))
		t.Seq = int64(i)
		e.Ingest(t)
	}
}

// BenchmarkE4PSoup measures PSoup insert (new data on old queries) and
// fetch (window imposition on materialized results) (E4).
func BenchmarkE4PSoup(b *testing.B) {
	build := func(nq int) *psoup.PSoup {
		p := psoup.New(workload.StockSchema(), window.Physical)
		rng := rand.New(rand.NewSource(5))
		for q := 0; q < nq; q++ {
			lo := rng.Float64() * 80
			p.Register(expr.Conjunction{
				{Col: 2, Op: expr.Ge, Val: tuple.Float(lo)},
				{Col: 2, Op: expr.Le, Val: tuple.Float(lo + 10)},
			}, 100)
		}
		return p
	}
	b.Run("insert1000q", func(b *testing.B) {
		p := build(1000)
		rng := rand.New(rand.NewSource(6))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := tuple.New(tuple.Time(int64(i)), tuple.String_("X"),
				tuple.Float(rng.Float64()*100))
			t.TS = int64(i)
			t.Seq = int64(i)
			p.Insert(t)
			if i%4096 == 0 {
				p.Evict(int64(i) - 200)
			}
		}
	})
	b.Run("fetchMaterialized", func(b *testing.B) {
		p := build(100)
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 10000; i++ {
			t := tuple.New(tuple.Time(int64(i)), tuple.String_("X"),
				tuple.Float(rng.Float64()*100))
			t.TS = int64(i)
			t.Seq = int64(i)
			p.Insert(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Fetch(i%100, 10000)
		}
	})
}

// BenchmarkE5SharedVsPerQuery measures per-tuple cost of shared vs
// per-query execution with 100 standing queries (E5).
func BenchmarkE5SharedVsPerQuery(b *testing.B) {
	layout := tuple.NewLayout(tuple.NewSchema("s",
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "price", Kind: tuple.KindInt}))
	const nq = 100
	rng := rand.New(rand.NewSource(11))
	var conjs []expr.Conjunction
	shared, err := cacq.New(layout, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for q := 0; q < nq; q++ {
		lo := int64(rng.Intn(90))
		conj := expr.Conjunction{
			{Col: 1, Op: expr.Ge, Val: tuple.Int(lo)},
			{Col: 1, Op: expr.Le, Val: tuple.Int(lo + 10)},
		}
		conjs = append(conjs, conj)
		shared.AddQuery(1, []expr.Predicate(conj), nil, nil)
	}
	perQuery := baseline.NewPerQuery(conjs)

	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shared.Ingest(0, tuple.New(tuple.Int(0), tuple.Int(int64(i%100))))
		}
	})
	b.Run("perQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perQuery.Process(tuple.New(tuple.Int(0), tuple.Int(int64(i%100))))
		}
	})
}

// BenchmarkE6Flux measures routed throughput of the partitioned cluster,
// with and without replication (E6).
func BenchmarkE6Flux(b *testing.B) {
	for _, repl := range []bool{false, true} {
		b.Run(fmt.Sprintf("replicate=%v", repl), func(b *testing.B) {
			f := flux.New(flux.Config{Nodes: 4, Buckets: 64, KeyCol: 0, Replicate: repl},
				flux.NewGroupCount(0, -1))
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Route(tuple.New(tuple.Int(int64(i % 1000))))
			}
			f.WaitIdle(30 * time.Second)
		})
	}
}

// BenchmarkE7WindowInstance measures evaluation of one sliding-window
// instance (gather + filter + aggregate) on the window buffer (E7).
func BenchmarkE7WindowInstance(b *testing.B) {
	buf := window.NewBuffer(window.Physical)
	gen := workload.NewStockGenerator(1, nil)
	for i := 0; i < 100000; i++ {
		buf.Add(gen.Next())
	}
	agg := ops.NewAggregator(nil, ops.AggSpec{Fn: ops.Avg, Col: 2})
	maxT, _ := buf.MaxTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left := maxT - 100 - int64(i%50)
		rows := buf.Range(left, left+100)
		agg.Compute(rows)
	}
}

// BenchmarkE8Batching measures routing overhead as the batching knob
// sweeps (E8).
func BenchmarkE8Batching(b *testing.B) {
	for _, batch := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var p eddy.Policy = eddy.NewLotteryPolicy(7)
			if batch > 1 {
				p = eddy.NewBatchingPolicy(eddy.NewLotteryPolicy(7), batch)
			}
			e, l := driftEddy(p)
			gen := workload.NewDriftGenerator(42, 100000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Ingest(l.Widen(0, gen.Next()))
			}
		})
	}
}

// BenchmarkE9GroupedFilter measures grouped-filter vs naive factor
// evaluation at 1000 standing queries (E9).
func BenchmarkE9GroupedFilter(b *testing.B) {
	const nq = 1000
	rng := rand.New(rand.NewSource(23))
	g := gfilter.New(0, tuple.SingleSource(0))
	var preds []expr.Predicate
	for q := 0; q < nq; q++ {
		lo := int64(rng.Intn(100000))
		p1 := expr.Predicate{Col: 0, Op: expr.Ge, Val: tuple.Int(lo)}
		p2 := expr.Predicate{Col: 0, Op: expr.Le, Val: tuple.Int(lo + 1000)}
		g.Add(q, p1)
		g.Add(q, p2)
		preds = append(preds, p1, p2)
	}
	g.Failing(tuple.Int(0)) // warm the index
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Failing(tuple.Int(int64(i % 100000)))
		}
	})
	b.Run("naive", func(b *testing.B) {
		tp := tuple.New(tuple.Int(0))
		for i := 0; i < b.N; i++ {
			tp.Vals[0] = tuple.Int(int64(i % 100000))
			for _, p := range preds {
				_ = p.Eval(tp)
			}
		}
	})
}

// BenchmarkE10Engine measures end-to-end engine feed→eddy→egress cost for
// one standing selection query (the in-process core of E10).
func BenchmarkE10Engine(b *testing.B) {
	db := Open(Config{})
	defer db.Close()
	db.MustCreateStream("s", "x INT, y INT", "")
	q, err := db.Register(`SELECT y FROM s WHERE x > 50`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Feed("s", i%100, i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = q.Results()
}

// BenchmarkE12Storage measures spool append and windowed scan through the
// buffer pool (E12).
func BenchmarkE12Storage(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		st, err := storage.NewSegmentStore(b.TempDir(), "s", 1024, nil)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStockGenerator(1, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Append(gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scanPooled", func(b *testing.B) {
		pool := storage.NewBufferPool(16)
		st, err := storage.NewSegmentStore(b.TempDir(), "s", 1024, pool)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewStockGenerator(1, nil)
		for i := 0; i < 100000; i++ {
			st.Append(gen.Next())
		}
		st.Flush()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			left := int64(10000 + i%1000)
			if _, err := st.ScanRange(left, left+500); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWindowedJoin contrasts the two windowed-join execution
// strategies: the SteM-based incremental fast path (physical-time sliding
// windows) vs generic per-instance re-evaluation (forced here via logical
// time). Ablation for DESIGN.md §5.
func BenchmarkWindowedJoin(b *testing.B) {
	run := func(b *testing.B, physical bool) {
		db := Open(Config{ExecutionObjects: 1})
		defer db.Close()
		timeCol := ""
		if physical {
			timeCol = "ts"
		}
		db.MustCreateStream("L", "ts TIME, k INT", timeCol)
		db.MustCreateStream("R", "ts TIME, k INT", timeCol)
		q, err := db.Register(`SELECT L.k FROM L, R WHERE L.k = R.k
			for (t = 50; ; t++) { WindowIs(L, t - 49, t); WindowIs(R, t - 49, t); }`)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := int64(i + 1)
			db.Feed("L", ts, int64(i%32))
			db.Feed("R", ts, int64(i%32))
		}
		b.StopTimer()
		_ = q.Results()
	}
	b.Run("incremental", func(b *testing.B) { run(b, true) })
	b.Run("generic", func(b *testing.B) { run(b, false) })
}

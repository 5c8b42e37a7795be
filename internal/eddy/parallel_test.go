package eddy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// oneStreamLayout builds S(k, v).
func oneStreamLayout() *tuple.Layout {
	s := tuple.NewSchema("S",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt})
	return tuple.NewLayout(s)
}

// filterShardConfig builds a ParallelConfig whose shards run a one-filter
// eddy over S(k, v) keeping v >= keep, partitioned on k.
func filterShardConfig(l *tuple.Layout, workers, batch, keep int, merge func(*tuple.Tuple)) ParallelConfig {
	return ParallelConfig{
		Workers:   workers,
		BatchSize: batch,
		Partition: func(t *tuple.Tuple) int { return int(t.Vals[0].Hash()) },
		NewShard: func(shard int, emit func(*tuple.Tuple)) Shard {
			f := ops.NewFilter("keep", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(int64(keep))})
			return New(tuple.SingleSource(0), NewFixedPolicy(), emit, f)
		},
		Merge:   merge,
		OrderBy: func(t *tuple.Tuple) int64 { return t.Seq },
	}
}

// TestParallelOrderedMatchesSequential is the core soundness check: a
// single-stream filter workload run through 1, 2, 3, and 4 shards with the
// ordered merge must reproduce the sequential eddy's output exactly —
// same tuples, same order.
func TestParallelOrderedMatchesSequential(t *testing.T) {
	l := oneStreamLayout()
	const n, keep = 2000, 3
	mk := func(i int) *tuple.Tuple {
		return widen(l, 0, int64(i+1), tuple.Int(int64(i%17)), tuple.Int(int64(i%7)))
	}

	var want []int64
	seqF := ops.NewFilter("keep", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(keep)})
	seq := New(tuple.SingleSource(0), NewFixedPolicy(), func(tp *tuple.Tuple) { want = append(want, tp.Seq) }, seqF)
	for i := 0; i < n; i++ {
		seq.Ingest(mk(i))
	}

	for _, workers := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("w%d_b%d", workers, batch), func(t *testing.T) {
				var got []int64
				pe := NewParallel(filterShardConfig(l, workers, batch, keep,
					func(tp *tuple.Tuple) { got = append(got, tp.Seq) }))
				for i := 0; i < n; i++ {
					pe.Ingest(mk(i))
				}
				pe.Close()
				if len(got) != len(want) {
					t.Fatalf("emitted %d tuples, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("output %d has Seq %d, want %d: ordered merge broke sequential order", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestParallelPartitionedJoin checks that hash-partitioning a symmetric
// join on its equijoin key across shards loses no matches and invents
// none: each shard joins only its keys, and the union over shards is the
// full join. Outputs are compared as a multiset (cross-stream order is not
// defined for a two-source join, so the merge runs unordered).
func TestParallelPartitionedJoin(t *testing.T) {
	l := twoStreamLayout()
	const n, mod = 120, 7

	// Sequential reference join.
	ref := runSymmetricJoin(t, NewFixedPolicy(), n, mod)
	want := map[string]int{}
	for _, m := range ref {
		want[fmt.Sprint(m.Vals)]++
	}

	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			got := map[string]int{}
			pe := NewParallel(ParallelConfig{
				Workers:   workers,
				BatchSize: 16,
				// Both streams carry the join key in their k column; the widened
				// layout puts S.k at 0 and T.k at 2.
				Partition: func(t *tuple.Tuple) int {
					col := 0
					if !t.Source.Overlaps(tuple.SingleSource(0)) {
						col = 2
					}
					return int(t.Vals[col].Hash())
				},
				NewShard: func(shard int, emit func(*tuple.Tuple)) Shard {
					modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
					return New(tuple.SingleSource(0).Union(tuple.SingleSource(1)), NewFixedPolicy(), emit, modS, modT)
				},
				Merge: func(tp *tuple.Tuple) {
					mu.Lock()
					got[fmt.Sprint(tp.Vals)]++
					mu.Unlock()
				},
			})
			for i := 0; i < n; i++ {
				k := int64(i) % mod
				pe.Ingest(widen(l, 0, int64(i), tuple.Int(k), tuple.Int(int64(i))))
				pe.Ingest(widen(l, 1, int64(i), tuple.Int(k), tuple.Int(int64(-i))))
			}
			pe.Close()
			if len(got) != len(want) {
				t.Fatalf("distinct outputs %d, want %d", len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Errorf("match %s seen %d times, want %d", k, got[k], c)
				}
			}
		})
	}
}

// TestParallelBarrier mutates live shards mid-stream: a Barrier between
// two ingest waves must observe every shard quiescent (all inputs sent so
// far fully processed) and apply a mutation that affects only the second
// wave.
func TestParallelBarrier(t *testing.T) {
	l := oneStreamLayout()
	var mu sync.Mutex
	count := 0
	pe := NewParallel(filterShardConfig(l, 4, 8, 0, func(*tuple.Tuple) {
		mu.Lock()
		count++
		mu.Unlock()
	}))
	const wave = 500
	for i := 0; i < wave; i++ {
		pe.Ingest(widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(1)))
	}
	seen := 0
	pe.Barrier(func(shard int, s Shard) {
		ed, ok := s.(*Eddy)
		if !ok {
			t.Fatalf("shard %d is %T, want *Eddy", shard, s)
		}
		st := ed.Stats()
		seen += int(st.Ingested)
		if st.Ingested != st.Emitted+st.Dropped {
			t.Errorf("shard %d not quiescent at barrier: %+v", shard, st)
		}
	})
	if seen != wave {
		t.Errorf("shards ingested %d at barrier, want %d", seen, wave)
	}
	for i := 0; i < wave; i++ {
		pe.Ingest(widen(l, 0, int64(wave+i+1), tuple.Int(int64(i)), tuple.Int(1)))
	}
	pe.Close()
	if count != 2*wave {
		t.Errorf("merged %d outputs, want %d", count, 2*wave)
	}
	st := pe.ParStats()
	if st.Ingested != 2*wave || st.Merged != 2*wave {
		t.Errorf("stats = %+v", st)
	}
	if st.Batches == 0 || st.BatchTuples != st.Ingested {
		t.Errorf("batch accounting: %+v", st)
	}
}

// TestStatsAddMatchesBarrierSnapshot is the aggregation property behind
// every partitioned host: for random worker counts, batch sizes and inputs,
// folding the shard eddies' Stats with Add — counters, per-module counters
// and lottery tickets — equals the host's own Stats, and the summed
// counters account for every tuple ingested.
func TestStatsAddMatchesBarrierSnapshot(t *testing.T) {
	l := oneStreamLayout()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		workers, batch, n := 1+rng.Intn(5), 1+rng.Intn(16), 50+rng.Intn(400)
		cfg := filterShardConfig(l, workers, batch, 3, nil)
		cfg.NewShard = func(shard int, emit func(*tuple.Tuple)) Shard {
			keep := ops.NewFilter("keep", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(3)})
			even := ops.NewFilter("even", l, expr.Predicate{Col: 0, Op: expr.Ne, Val: tuple.Int(1)})
			return New(tuple.SingleSource(0), NewLotteryPolicy(int64(shard)+1), emit, keep, even)
		}
		pe := NewParallel(cfg)
		for i := 0; i < n; i++ {
			pe.Ingest(widen(l, 0, int64(i+1), tuple.Int(rng.Int63n(9)), tuple.Int(rng.Int63n(7))))
		}
		var folded Stats
		pe.Barrier(func(_ int, s Shard) { folded.Add(s.Eddy().Stats()) })
		got := pe.Stats()
		if !reflect.DeepEqual(got, folded) {
			t.Fatalf("trial %d (workers=%d): host Stats %+v != folded shard Stats %+v", trial, workers, got, folded)
		}
		if got.Ingested != int64(n) || got.Ingested != got.Emitted+got.Dropped ||
			len(got.Modules) != 2 || len(got.Tickets) != 2 {
			t.Fatalf("trial %d: summed stats do not account for %d tuples: %+v", trial, n, got)
		}
		pe.Close()
	}
}

// TestParallelMetrics registers the layer's series and checks the exported
// names and the unregister path.
func TestParallelMetrics(t *testing.T) {
	l := oneStreamLayout()
	pe := NewParallel(filterShardConfig(l, 2, 4, 0, nil))
	reg := metrics.NewRegistry()
	cancel := pe.RegisterMetrics(reg, "test")
	for i := 0; i < 10; i++ {
		pe.Ingest(widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(1)))
	}
	pe.Close()
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	dump := buf.String()
	for _, name := range []string{
		"tcq_parallel_workers", "tcq_parallel_ingested_total",
		"tcq_parallel_batches_total", "tcq_parallel_batch_size_mean",
		`tcq_parallel_shard_queue_depth{par="test",shard="0"}`,
		`tcq_parallel_shard_queue_depth{par="test",shard="1"}`,
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
	cancel()
	buf.Reset()
	reg.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "tcq_parallel") {
		t.Error("unregister left parallel series behind")
	}
}

// TestParallelRecyclerDropPath wires a pool into each shard eddy and
// checks dropped tuples are recycled while emitted ones are not.
func TestParallelRecyclerDropPath(t *testing.T) {
	l := oneStreamLayout()
	pool := tuple.NewPool()
	var got []int64
	pe := NewParallel(ParallelConfig{
		Workers:   2,
		BatchSize: 4,
		Partition: func(t *tuple.Tuple) int { return int(t.Vals[0].Hash()) },
		NewShard: func(shard int, emit func(*tuple.Tuple)) Shard {
			f := ops.NewFilter("keep", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(5)})
			ed := New(tuple.SingleSource(0), NewFixedPolicy(), emit, f)
			ed.SetRecycler(pool)
			return ed
		},
		Merge:   func(tp *tuple.Tuple) { got = append(got, tp.Seq) },
		OrderBy: func(t *tuple.Tuple) int64 { return t.Seq },
	})
	const n = 1000
	for i := 0; i < n; i++ {
		pe.Ingest(widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(int64(i%10))))
	}
	pe.Close()
	if len(got) != n/2 {
		t.Fatalf("emitted %d, want %d", len(got), n/2)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate Seq %d: recycler reused a live tuple", got[i])
		}
	}
	if st := pool.Stats(); st.Puts != n/2 {
		t.Errorf("pool recycled %d tuples, want %d (the dropped half)", st.Puts, n/2)
	}
}

// TestParallelUnorderedDeliversAll covers the arrival-order merge: all
// outputs arrive, each exactly once.
func TestParallelUnorderedDeliversAll(t *testing.T) {
	l := oneStreamLayout()
	seen := map[int64]bool{}
	cfg := filterShardConfig(l, 3, 8, 0, nil)
	cfg.OrderBy = nil
	cfg.Merge = func(tp *tuple.Tuple) {
		if seen[tp.Seq] {
			t.Errorf("Seq %d delivered twice", tp.Seq)
		}
		seen[tp.Seq] = true
	}
	pe := NewParallel(cfg)
	const n = 777
	for i := 0; i < n; i++ {
		pe.Ingest(widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(1)))
	}
	pe.Close()
	if len(seen) != n {
		t.Fatalf("delivered %d tuples, want %d", len(seen), n)
	}
}

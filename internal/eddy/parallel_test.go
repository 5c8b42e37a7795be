package eddy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
)

// oneStreamLayout builds S(k, v).
func oneStreamLayout() *tuple.Layout {
	s := tuple.NewSchema("S",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt})
	return tuple.NewLayout(s)
}

// eddyShard is a Shard running a plain eddy over S: its outputs are the
// shard's results, in the order the eddy emits them.
type eddyShard struct {
	ed  *Eddy
	out []Output
	b   tuple.Batch
}

func newEddyShard(policy Policy, mods ...Module) *eddyShard {
	s := &eddyShard{}
	s.ed = New(tuple.SingleSource(0), policy, func(t *tuple.Tuple) { s.out = append(s.out, Output{T: t}) }, mods...)
	return s
}

func (s *eddyShard) Run(in []*tuple.Tuple, out []Output) []Output {
	s.out = out
	s.b.Tuples = append(s.b.Tuples[:0], in...)
	s.ed.IngestBatch(&s.b)
	s.b.Reset()
	out, s.out = s.out, nil
	return out
}

func (s *eddyShard) Reclaim([]Output) {}
func (s *eddyShard) Eddy() *Eddy      { return s.ed }

// keepFilter is the filter v >= keep over S.
func keepFilter(l *tuple.Layout, keep int) Module {
	return ops.NewFilter("keep", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(int64(keep))})
}

// filterShardConfig builds a ParallelConfig whose shards run a one-filter
// eddy over S(k, v) keeping v >= keep.
func filterShardConfig(l *tuple.Layout, workers, keep int, merge func(*tuple.Tuple)) ParallelConfig {
	return ParallelConfig{
		Workers: workers,
		NewShard: func(int) Shard {
			return newEddyShard(NewFixedPolicy(), keepFilter(l, keep))
		},
		Merge: func(o Output) bool {
			if merge != nil {
				merge(o.T)
			}
			return true
		},
	}
}

// ingestBatches hands ts to pe in batches of size batch.
func ingestBatches(pe *ParallelEddy, ts []*tuple.Tuple, batch int) {
	for i := 0; i < len(ts); i += batch {
		pe.Ingest(ts[i:min(i+batch, len(ts))])
	}
}

// TestParallelOrderedMatchesSequential is the core soundness check: a
// single-stream filter workload run through 1, 2, 3, and 4 shards in
// batches of 1, 8 and 64 must reproduce the sequential eddy's output
// exactly — same tuples, same order.
func TestParallelOrderedMatchesSequential(t *testing.T) {
	l := oneStreamLayout()
	const n, keep = 2000, 3
	mk := func(i int) *tuple.Tuple {
		return widen(l, 0, int64(i+1), tuple.Int(int64(i%17)), tuple.Int(int64(i%7)))
	}

	var want []int64
	seq := New(tuple.SingleSource(0), NewFixedPolicy(), func(tp *tuple.Tuple) { want = append(want, tp.Seq) }, keepFilter(l, keep))
	for i := 0; i < n; i++ {
		seq.Ingest(mk(i))
	}

	for _, workers := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("w%d_b%d", workers, batch), func(t *testing.T) {
				var got []int64
				pe := NewParallel(filterShardConfig(l, workers, keep,
					func(tp *tuple.Tuple) { got = append(got, tp.Seq) }))
				ts := make([]*tuple.Tuple, n)
				for i := range ts {
					ts[i] = mk(i)
				}
				ingestBatches(pe, ts, batch)
				pe.Close()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pipeline emitted %d tuples, sequential %d, or in another order", len(got), len(want))
				}
			})
		}
	}
}

// TestParallelMergeKeepsBatchOrder holds every odd batch on its shard until
// the even shard has finished all of its own, so the shards finish out of
// batch order; the merge must still deliver batch k's results before batch
// k+1's. A merge forwarding results in the order shards finish fails here.
func TestParallelMergeKeepsBatchOrder(t *testing.T) {
	l := oneStreamLayout()
	const batches, size = 6, 5
	release := make(chan struct{})
	evenDone := make(chan struct{}, batches)
	var got []int64
	pe := NewParallel(ParallelConfig{
		Workers: 2,
		NewShard: func(shard int) Shard {
			return heldShard{newEddyShard(NewFixedPolicy(), keepFilter(l, 0)), shard, release, evenDone}
		},
		Merge: func(o Output) bool {
			got = append(got, o.T.Seq)
			return true
		},
	})
	ts := make([]*tuple.Tuple, batches*size)
	for i := range ts {
		ts[i] = widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(1))
	}
	ingestBatches(pe, ts, size)
	for range batches / 2 {
		<-evenDone
	}
	close(release)
	pe.Close()
	if len(got) != len(ts) {
		t.Fatalf("merged %d results, want %d", len(got), len(ts))
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("result %d is Seq %d, want %d: the merge left batch order (%v)", i, seq, i+1, got)
		}
	}
}

// heldShard is shard 0 or 1 of TestParallelMergeKeepsBatchOrder: shard 1
// waits for release before each batch, shard 0 signals evenDone after each.
type heldShard struct {
	*eddyShard
	shard    int
	release  chan struct{}
	evenDone chan struct{}
}

func (h heldShard) Run(in []*tuple.Tuple, out []Output) []Output {
	if h.shard == 1 {
		<-h.release
	}
	out = h.eddyShard.Run(in, out)
	if h.shard == 0 {
		h.evenDone <- struct{}{}
	}
	return out
}

// TestParallelBarrier mutates live shards mid-stream: a Barrier between
// two ingest waves must observe every shard quiescent (all inputs sent so
// far fully processed and delivered) and apply a mutation that affects only
// the second wave.
func TestParallelBarrier(t *testing.T) {
	l := oneStreamLayout()
	var mu sync.Mutex
	count := 0
	pe := NewParallel(filterShardConfig(l, 4, 0, func(*tuple.Tuple) {
		mu.Lock()
		count++
		mu.Unlock()
	}))
	const wave = 500
	mkWave := func(base int) []*tuple.Tuple {
		ts := make([]*tuple.Tuple, wave)
		for i := range ts {
			ts[i] = widen(l, 0, int64(base+i+1), tuple.Int(int64(i)), tuple.Int(1))
		}
		return ts
	}
	ingestBatches(pe, mkWave(0), 8)
	seen := 0
	pe.Barrier(func(shards []Shard) {
		if count != wave {
			t.Errorf("merged %d outputs at the barrier, want %d", count, wave)
		}
		for i, s := range shards {
			st := s.Eddy().Stats()
			seen += int(st.Ingested)
			if st.Ingested != st.Emitted+st.Dropped {
				t.Errorf("shard %d not quiescent at barrier: %+v", i, st)
			}
		}
	})
	if seen != wave {
		t.Errorf("shards ingested %d at barrier, want %d", seen, wave)
	}
	ingestBatches(pe, mkWave(wave), 8)
	pe.Close()
	if count != 2*wave {
		t.Errorf("merged %d outputs, want %d", count, 2*wave)
	}
	st := pe.ParStats()
	if st.Ingested != 2*wave || st.Merged != 2*wave {
		t.Errorf("stats = %+v", st)
	}
	if st.Batches != 2*((wave+7)/8) {
		t.Errorf("batch accounting: %+v", st)
	}
}

// TestStatsAddMatchesBarrierSnapshot is the aggregation property behind
// every pipeline host: for random worker counts, batch sizes and inputs,
// folding the shard eddies' Stats with Add — counters, per-module counters
// and lottery tickets — equals the host's own Stats, and the summed
// counters account for every tuple ingested.
func TestStatsAddMatchesBarrierSnapshot(t *testing.T) {
	l := oneStreamLayout()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		workers, batch, n := 1+rng.Intn(5), 1+rng.Intn(16), 50+rng.Intn(400)
		cfg := filterShardConfig(l, workers, 3, nil)
		cfg.NewShard = func(shard int) Shard {
			even := ops.NewFilter("even", l, expr.Predicate{Col: 0, Op: expr.Ne, Val: tuple.Int(1)})
			return newEddyShard(NewLotteryPolicy(int64(shard)+1), keepFilter(l, 3), even)
		}
		pe := NewParallel(cfg)
		ts := make([]*tuple.Tuple, n)
		for i := range ts {
			ts[i] = widen(l, 0, int64(i+1), tuple.Int(rng.Int63n(9)), tuple.Int(rng.Int63n(7)))
		}
		ingestBatches(pe, ts, batch)
		var folded Stats
		pe.Barrier(func(shards []Shard) {
			for _, s := range shards {
				folded.Add(s.Eddy().Stats())
			}
		})
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
	pe := NewParallel(filterShardConfig(l, 2, 0, nil))
	reg := metrics.NewRegistry()
	cancel := pe.RegisterMetrics(reg, "test")
	ts := make([]*tuple.Tuple, 10)
	for i := range ts {
		ts[i] = widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(1))
	}
	ingestBatches(pe, ts, 4)
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
		Workers: 2,
		NewShard: func(int) Shard {
			s := newEddyShard(NewFixedPolicy(), keepFilter(l, 5))
			s.ed.SetRecycler(pool)
			return s
		},
		Merge: func(o Output) bool {
			got = append(got, o.T.Seq)
			return true
		},
	})
	const n = 1000
	ts := make([]*tuple.Tuple, n)
	for i := range ts {
		ts[i] = widen(l, 0, int64(i+1), tuple.Int(int64(i)), tuple.Int(int64(i%10)))
	}
	ingestBatches(pe, ts, 4)
	pe.Close()
	if len(got) != n/2 {
		t.Fatalf("emitted %d, want %d", len(got), n/2)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Seq %d after %d: recycler reused a live tuple, or the merge left batch order", got[i], got[i-1])
		}
	}
	if st := pool.Stats(); st.Puts != n/2 {
		t.Errorf("pool recycled %d tuples, want %d (the dropped half)", st.Puts, n/2)
	}
}

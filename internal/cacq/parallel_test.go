package cacq

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// TestParallelSelectionMatchesSequential runs the same standing-query
// population and tuple stream through a sequential Engine and Parallel
// engines at 1, 2, and 4 workers: per-query delivery counts — and, with
// the ordered merge, the exact delivery order — must be identical.
func TestParallelSelectionMatchesSequential(t *testing.T) {
	l := stockLayout()
	const nq, nt = 40, 600
	type querySpec struct {
		sels []expr.Predicate
	}
	rng := rand.New(rand.NewSource(5))
	specs := make([]querySpec, nq)
	for q := range specs {
		lo := int64(rng.Intn(50))
		specs[q] = querySpec{sels: []expr.Predicate{
			{Col: 0, Op: expr.Eq, Val: tuple.Int(int64(rng.Intn(4)))},
			{Col: 1, Op: expr.Ge, Val: tuple.Int(lo)},
			{Col: 1, Op: expr.Le, Val: tuple.Int(lo + int64(rng.Intn(60)))},
		}}
	}
	tuples := make([]*tuple.Tuple, nt)
	for i := range tuples {
		tuples[i] = mk(int64(rng.Intn(4)), int64(rng.Intn(100)))
		tuples[i].Seq = int64(i + 1)
	}

	run := func(ingest func(*tuple.Tuple), add func(int, []expr.Predicate, func(*tuple.Tuple))) [][]int64 {
		order := make([][]int64, nq)
		for q := range specs {
			qi := q
			add(q, specs[q].sels, func(tp *tuple.Tuple) { order[qi] = append(order[qi], tp.Seq) })
		}
		for _, tp := range tuples {
			ingest(tp)
		}
		return order
	}

	seq, _ := New(l, nil, nil)
	want := run(func(tp *tuple.Tuple) { seq.Ingest(0, tp.Clone()) },
		func(q int, sels []expr.Predicate, out func(*tuple.Tuple)) {
			if _, err := seq.AddQuery(tuple.SingleSource(0), sels, nil, out); err != nil {
				t.Fatal(err)
			}
		})

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			par, err := NewParallelEngine(l, nil, ParallelOptions{
				Workers: workers, BatchSize: 16, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			got := run(func(tp *tuple.Tuple) { par.IngestBatch(0, []*tuple.Tuple{tp.Clone()}) },
				func(q int, sels []expr.Predicate, out func(*tuple.Tuple)) {
					if _, err := par.AddQuery(tuple.SingleSource(0), sels, nil, out); err != nil {
						t.Fatal(err)
					}
				})
			par.Close()
			for q := range want {
				if len(got[q]) != len(want[q]) {
					t.Fatalf("query %d: parallel delivered %d, sequential %d", q, len(got[q]), len(want[q]))
				}
				for i := range want[q] {
					if got[q][i] != want[q][i] {
						t.Fatalf("query %d result %d: Seq %d, want %d (ordered merge)", q, i, got[q][i], want[q][i])
					}
				}
			}
		})
	}
}

// TestParallelSharedJoinMatchesSequential partitions the shared equijoin
// across shards and compares per-query delivery multisets against the
// sequential engine.
func TestParallelSharedJoinMatchesSequential(t *testing.T) {
	l := joinLayout()
	joins := []JoinSpec{{StreamA: 0, StreamB: 1, ColA: 0, ColB: 2, TimeKind: window.Physical}}
	const n, mod = 150, 6

	feed := func(ingest func(int, *tuple.Tuple)) {
		for i := 0; i < n; i++ {
			k := int64(i) % mod
			s := mk(k, int64(i))
			s.Seq = int64(2*i + 1)
			tt := mk(k, int64(-i))
			tt.Seq = int64(2*i + 2)
			ingest(0, s)
			ingest(1, tt)
		}
	}
	both := tuple.SingleSource(0).Union(tuple.SingleSource(1))
	sels := []expr.Predicate{{Col: 1, Op: expr.Ge, Val: tuple.Int(20)}}

	count := func(ms map[string]int) func(*tuple.Tuple) {
		var mu sync.Mutex
		return func(tp *tuple.Tuple) {
			mu.Lock()
			ms[fmt.Sprint(tp.Vals)]++
			mu.Unlock()
		}
	}

	seq, _ := New(l, joins, nil)
	wantJoin := map[string]int{}
	wantSel := map[string]int{}
	if _, err := seq.AddQuery(both, nil, nil, count(wantJoin)); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.AddQuery(both, sels, nil, count(wantSel)); err != nil {
		t.Fatal(err)
	}
	feed(func(s int, tp *tuple.Tuple) { seq.Ingest(s, tp.Clone()) })
	if len(wantJoin) == 0 {
		t.Fatal("sequential reference join produced nothing")
	}

	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			par, err := NewParallelEngine(l, joins, ParallelOptions{Workers: workers, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			gotJoin := map[string]int{}
			gotSel := map[string]int{}
			if _, err := par.AddQuery(both, nil, nil, count(gotJoin)); err != nil {
				t.Fatal(err)
			}
			if _, err := par.AddQuery(both, sels, nil, count(gotSel)); err != nil {
				t.Fatal(err)
			}
			feed(func(s int, tp *tuple.Tuple) { par.IngestBatch(s, []*tuple.Tuple{tp.Clone()}) })
			par.Close()
			for name, want := range map[string]map[string]int{"join": wantJoin, "sel": wantSel} {
				got := map[string]map[string]int{"join": gotJoin, "sel": gotSel}[name]
				if len(got) != len(want) {
					t.Fatalf("%s query: %d distinct results, want %d", name, len(got), len(want))
				}
				for k, c := range want {
					if got[k] != c {
						t.Errorf("%s query: result %s seen %d times, want %d", name, k, got[k], c)
					}
				}
			}
		})
	}
}

// TestParallelDynamicAddRemove adds and removes queries between waves on a
// live parallel engine; delivery must follow the standing set exactly.
func TestParallelDynamicAddRemove(t *testing.T) {
	l := stockLayout()
	par, err := NewParallelEngine(l, nil, ParallelOptions{Workers: 3, BatchSize: 4, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	var aCount, bCount int
	qa, err := par.AddQuery(tuple.SingleSource(0),
		[]expr.Predicate{{Col: 1, Op: expr.Ge, Val: tuple.Int(50)}}, nil,
		func(*tuple.Tuple) { aCount++ })
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	wave := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			tp := mk(int64(i%4), int64(i%100))
			tp.Seq = seq
			par.IngestBatch(0, []*tuple.Tuple{tp})
		}
		par.Flush()
	}
	wave(200) // i%100 >= 50 for half
	if _, err := par.AddQuery(tuple.SingleSource(0),
		[]expr.Predicate{{Col: 1, Op: expr.Lt, Val: tuple.Int(50)}}, nil,
		func(*tuple.Tuple) { bCount++ }); err != nil {
		t.Fatal(err)
	}
	wave(200)
	if err := par.RemoveQuery(qa.ID); err != nil {
		t.Fatal(err)
	}
	wave(200)
	par.Close()
	if aCount != 200 { // 100 per wave, standing for waves 1-2
		t.Errorf("query A delivered %d, want 200", aCount)
	}
	if bCount != 200 { // standing for waves 2-3
		t.Errorf("query B delivered %d, want 200", bCount)
	}
	if got := par.Delivered(); got != int64(bCount) {
		// qa was removed; Delivered sums standing queries only.
		t.Errorf("Delivered() = %d, want %d", got, bCount)
	}
}

// TestParallelFrontRefusesWhatAShardWould: a partitioned engine's front
// builds no SteM and so no arrangement, yet it refuses a member exactly when
// a shard would — at the 65th module, counting the shards' two SteMs — and
// keeps no trace of the refused member.
func TestParallelFrontRefusesWhatAShardWould(t *testing.T) {
	cols := make([]tuple.Column, 64)
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt}
	}
	layout := tuple.NewLayout(tuple.NewSchema("A", cols...),
		tuple.NewSchema("B", tuple.Column{Name: "k", Kind: tuple.KindInt}))
	joins := []JoinSpec{{StreamA: 0, StreamB: 1, ColA: 0, ColB: 64}}
	par, err := NewParallelEngine(layout, joins, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	both := tuple.SingleSource(0) | tuple.SingleSource(1)
	// Two SteMs and 62 grouped filters make 64 modules on each shard.
	for c := 1; c <= 62; c++ {
		if _, err := par.AddQuery(both, []expr.Predicate{{Col: c, Op: expr.Ge, Val: tuple.Int(0)}}, nil, nil); err != nil {
			t.Fatalf("query on column %d: %v", c, err)
		}
	}
	_, err = par.AddQuery(both, []expr.Predicate{{Col: 63, Op: expr.Ge, Val: tuple.Int(0)}}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("query needing module 65: err = %v, want the 64-module cap", err)
	}
	if n := par.QueryCount(); n != 62 {
		t.Errorf("the front holds %d members after the refusal, want 62", n)
	}
	n := 0
	par.Arrangements(func(int, *arrange.Arrangement) { n++ })
	if n != 4 {
		t.Errorf("%d arrangements, want 4: two per shard, none on the front", n)
	}
}

// TestPartitionColumns pins the partitionability rule: one equivalence
// class is parallelizable, two are not.
func TestPartitionColumns(t *testing.T) {
	threeStream := tuple.NewLayout(
		tuple.NewSchema("A", tuple.Column{Name: "x", Kind: tuple.KindInt}),
		tuple.NewSchema("B", tuple.Column{Name: "x", Kind: tuple.KindInt}, tuple.Column{Name: "y", Kind: tuple.KindInt}),
		tuple.NewSchema("C", tuple.Column{Name: "y", Kind: tuple.KindInt}),
	)
	// A.x = B.x and B.x = C.y: one class {0,1,3} — partitionable.
	cols, ok := PartitionColumns(threeStream, []JoinSpec{
		{StreamA: 0, StreamB: 1, ColA: 0, ColB: 1},
		{StreamA: 1, StreamB: 2, ColA: 1, ColB: 3},
	})
	if !ok {
		t.Fatal("single-class join set reported unpartitionable")
	}
	if cols[0] != 0 || cols[1] != 1 || cols[2] != 3 {
		t.Errorf("key columns = %v, want [0 1 3]", cols)
	}
	// A.x = B.x and B.y = C.y: two classes — must refuse.
	if _, ok := PartitionColumns(threeStream, []JoinSpec{
		{StreamA: 0, StreamB: 1, ColA: 0, ColB: 1},
		{StreamA: 1, StreamB: 2, ColA: 2, ColB: 3},
	}); ok {
		t.Error("two-class join set reported partitionable")
	}
	// No joins: every stream partitions on its first column.
	cols, ok = PartitionColumns(threeStream, nil)
	if !ok || cols[0] != 0 || cols[1] != 1 || cols[2] != 3 {
		t.Errorf("no-join key columns = %v ok=%v", cols, ok)
	}
	if _, err := NewParallelEngine(threeStream, []JoinSpec{
		{StreamA: 0, StreamB: 1, ColA: 0, ColB: 1},
		{StreamA: 1, StreamB: 2, ColA: 2, ColB: 3},
	}, ParallelOptions{Workers: 2}); err == nil {
		t.Error("NewParallelEngine accepted an unpartitionable join set")
	}
}

package cacq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// TestParallelSelectionMatchesSequential runs the same standing-query
// population and tuple stream through a sequential Engine and Parallel
// engines at 1, 2, and 4 workers: every query's deliveries, in order, must
// be identical.
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
			par, err := NewParallelEngine(l, ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := run(func(tp *tuple.Tuple) { par.IngestBatch(0, []*tuple.Tuple{tp.Clone()}) },
				func(q int, sels []expr.Predicate, out func(*tuple.Tuple)) {
					if _, err := par.AddMember(tuple.SingleSource(0), sels, nil, keepsAll(out)); err != nil {
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
						t.Fatalf("query %d result %d: Seq %d, want %d (batch-order merge)", q, i, got[q][i], want[q][i])
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
	par, err := NewParallelEngine(l, ParallelOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var aCount, bCount int
	qa, err := par.AddMember(tuple.SingleSource(0),
		[]expr.Predicate{{Col: 1, Op: expr.Ge, Val: tuple.Int(50)}}, nil,
		keepsAll(func(*tuple.Tuple) { aCount++ }))
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	wave := func(n int) {
		for i := 0; i < n; i += 4 {
			batch := make([]*tuple.Tuple, 4)
			for j := range batch {
				seq++
				batch[j] = mk(int64((i+j)%4), int64((i+j)%100))
				batch[j].Seq = seq
			}
			par.IngestOwned(0, batch)
		}
	}
	wave(200) // i%100 >= 50 for half
	if _, err := par.AddMember(tuple.SingleSource(0),
		[]expr.Predicate{{Col: 1, Op: expr.Lt, Val: tuple.Int(50)}}, nil,
		keepsAll(func(*tuple.Tuple) { bCount++ })); err != nil {
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

// TestParallelFrontRefusesWhatAShardWould: a parallel engine's front
// builds no grouped filter, yet the engine refuses a member exactly when a
// shard would — at the 65th module — and keeps no trace of the refused
// member on the front or on any shard.
func TestParallelFrontRefusesWhatAShardWould(t *testing.T) {
	cols := make([]tuple.Column, 65)
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt}
	}
	layout := tuple.NewLayout(tuple.NewSchema("A", cols...))
	par, err := NewParallelEngine(layout, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	a := tuple.SingleSource(0)
	// 64 grouped filters make 64 modules on each shard.
	for c := 0; c < 64; c++ {
		if _, err := par.AddMember(a, []expr.Predicate{{Col: c, Op: expr.Ge, Val: tuple.Int(0)}}, nil, nil); err != nil {
			t.Fatalf("query on column %d: %v", c, err)
		}
	}
	_, err = par.AddMember(a, []expr.Predicate{{Col: 64, Op: expr.Ge, Val: tuple.Int(0)}}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("query needing module 65: err = %v, want the 64-module cap", err)
	}
	if n := par.front.QueryCount(); n != 64 {
		t.Errorf("the front holds %d members after the refusal, want 64", n)
	}
	for i, sh := range par.shards {
		if n, m := sh.QueryCount(), len(sh.ed.Modules()); n != 64 || m != 64 {
			t.Errorf("shard %d holds %d members on %d modules after the refusal, want 64 on 64", i, n, m)
		}
	}
	if m := len(par.front.ed.Modules()); m != 0 {
		t.Errorf("the front routes through %d modules, want none", m)
	}
}

// TestParallelRefusesJoinLayouts: the pipeline runs one-stream classes only;
// a join class stays on a sequential Engine at any worker count.
func TestParallelRefusesJoinLayouts(t *testing.T) {
	if _, err := NewParallelEngine(joinLayout(), ParallelOptions{Workers: 2}); err == nil {
		t.Error("NewParallelEngine accepted a two-stream layout")
	}
}

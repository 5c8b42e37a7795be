package cacq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"telegraphcq/internal/baseline"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func stockLayout() *tuple.Layout {
	return tuple.NewLayout(tuple.NewSchema("stocks",
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "price", Kind: tuple.KindInt},
	))
}

func joinLayout() *tuple.Layout {
	return tuple.NewLayout(
		tuple.NewSchema("S",
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "v", Kind: tuple.KindInt}),
		tuple.NewSchema("T",
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "w", Kind: tuple.KindInt}),
	)
}

func mk(vals ...int64) *tuple.Tuple {
	vs := make([]tuple.Value, len(vals))
	for i, v := range vals {
		vs[i] = tuple.Int(v)
	}
	return tuple.New(vs...)
}

// TestSelectionEquivalenceWithPerQuery is the core CACQ correctness
// property: shared execution delivers exactly the same per-query results
// as independent per-query evaluation.
func TestSelectionEquivalenceWithPerQuery(t *testing.T) {
	l := stockLayout()
	rng := rand.New(rand.NewSource(11))
	const nq, nt = 60, 400

	var conjs []expr.Conjunction
	e, _ := New(l, nil, nil)
	counts := make([]int64, nq)
	for q := 0; q < nq; q++ {
		lo := int64(rng.Intn(50))
		hi := lo + int64(rng.Intn(50))
		sym := int64(rng.Intn(4))
		conj := expr.Conjunction{
			{Col: 0, Op: expr.Eq, Val: tuple.Int(sym)},
			{Col: 1, Op: expr.Ge, Val: tuple.Int(lo)},
			{Col: 1, Op: expr.Le, Val: tuple.Int(hi)},
		}
		conjs = append(conjs, conj)
		qi := q
		if _, err := e.AddQuery(tuple.SingleSource(0), []expr.Predicate(conj), nil,
			func(*tuple.Tuple) { counts[qi]++ }); err != nil {
			t.Fatal(err)
		}
	}
	ref := baseline.NewPerQuery(conjs)
	wantCounts := make([]int64, nq)
	for i := 0; i < nt; i++ {
		tp := mk(int64(rng.Intn(4)), int64(rng.Intn(100)))
		got := ref.Process(tp)
		got.ForEach(func(q int) { wantCounts[q]++ })
		e.Ingest(0, tp)
	}
	for q := 0; q < nq; q++ {
		if counts[q] != wantCounts[q] {
			t.Errorf("query %d: shared delivered %d, per-query %d",
				q, counts[q], wantCounts[q])
		}
	}
}

// TestSharedJoinDelivery runs once as constructed and once recycling, where
// the engine owns its input and draws wide rows from the pool: every
// completed tuple no SteM holds then loses its lineage to the spare list
// and, unless kept, its row to the pool — but the base tuples are SteM
// builds, which later probes still read, so they must be neither.
func TestSharedJoinDelivery(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		t.Run(fmt.Sprintf("recycle=%v", recycle), func(t *testing.T) { testSharedJoinDelivery(t, recycle) })
	}
}

func testSharedJoinDelivery(t *testing.T, recycle bool) {
	l := joinLayout()
	spec := []JoinSpec{{StreamA: 0, StreamB: 1, ColA: 0, ColB: 2, TimeKind: window.Logical}}
	e, _ := New(l, spec, nil)
	ingest := e.Ingest
	if recycle {
		e.SetRecycler(tuple.NewPool())
		ingest = func(s int, base *tuple.Tuple) { e.IngestOwned(s, []*tuple.Tuple{base}) }
	}

	// Query A: full join, no selections.
	// Query B: join where S.v >= 5.
	// Query C: single-stream query on S: v >= 8.
	var aGot, bGot, cGot []*tuple.Tuple
	if _, err := e.AddQuery(3, nil, nil, func(tp *tuple.Tuple) { aGot = append(aGot, tp) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddQuery(3, []expr.Predicate{{Col: 1, Op: expr.Ge, Val: tuple.Int(5)}},
		nil, func(tp *tuple.Tuple) { bGot = append(bGot, tp) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddQuery(1, []expr.Predicate{{Col: 1, Op: expr.Ge, Val: tuple.Int(8)}},
		nil, func(tp *tuple.Tuple) { cGot = append(cGot, tp) }); err != nil {
		t.Fatal(err)
	}

	// 10 S tuples (k = i%2, v = i), 4 T tuples (k = i%2, w = i).
	for i := int64(0); i < 10; i++ {
		ingest(0, mk(i%2, i))
	}
	for i := int64(0); i < 4; i++ {
		ingest(1, mk(i%2, i))
	}

	// Join matches: S(k)x{T with same k}: 5 S-tuples per key, 2 T per key
	// → 5*2*2 = 20 matches total.
	if len(aGot) != 20 {
		t.Errorf("query A results = %d, want 20", len(aGot))
	}
	// B: only S.v >= 5 (5 tuples: v=5..9; keys 1,0,1,0,1) — each joins 2.
	if len(bGot) != 10 {
		t.Errorf("query B results = %d, want 10", len(bGot))
	}
	// C: single-stream, v in 8..9.
	if len(cGot) != 2 {
		t.Errorf("query C results = %d, want 2", len(cGot))
	}
	for _, tp := range cGot {
		if tp.Source != 1 {
			t.Errorf("single-stream result spans %b", tp.Source)
		}
	}
	for _, tp := range append(aGot, bGot...) {
		if tp.Vals[0].AsInt() != tp.Vals[2].AsInt() {
			t.Errorf("join result %v joins unequal keys", tp)
		}
		if recycle && tp.Queries != nil {
			t.Errorf("join result %v carries lineage %v", tp, tp.Queries)
		}
	}
}

func TestDynamicAddRemove(t *testing.T) {
	l := stockLayout()
	e, _ := New(l, nil, nil)
	var n1, n2 int
	q1, err := e.AddQuery(1, []expr.Predicate{{Col: 1, Op: expr.Gt, Val: tuple.Int(50)}},
		nil, func(*tuple.Tuple) { n1++ })
	if err != nil {
		t.Fatal(err)
	}
	e.Ingest(0, mk(0, 60))
	e.Ingest(0, mk(0, 40))
	if n1 != 1 {
		t.Fatalf("q1 = %d", n1)
	}

	// Add a second query mid-stream (queries added dynamically to the
	// running executor, §4.2.1).
	if _, err := e.AddQuery(1, []expr.Predicate{{Col: 1, Op: expr.Lt, Val: tuple.Int(50)}},
		nil, func(*tuple.Tuple) { n2++ }); err != nil {
		t.Fatal(err)
	}
	e.Ingest(0, mk(0, 60))
	e.Ingest(0, mk(0, 40))
	if n1 != 2 || n2 != 1 {
		t.Fatalf("after add: n1=%d n2=%d", n1, n2)
	}

	if err := e.RemoveQuery(q1.ID); err != nil {
		t.Fatal(err)
	}
	e.Ingest(0, mk(0, 60))
	if n1 != 2 {
		t.Error("removed query still delivered")
	}
	if e.QueryCount() != 1 {
		t.Errorf("query count = %d", e.QueryCount())
	}
	if err := e.RemoveQuery(q1.ID); err == nil {
		t.Error("double remove should fail")
	}
}

func TestProjection(t *testing.T) {
	l := stockLayout()
	e, _ := New(l, nil, nil)
	var got *tuple.Tuple
	if _, err := e.AddQuery(1, nil, []int{1}, func(tp *tuple.Tuple) { got = tp }); err != nil {
		t.Fatal(err)
	}
	e.Ingest(0, mk(7, 42))
	if got == nil || len(got.Vals) != 1 || got.Vals[0].AsInt() != 42 {
		t.Errorf("projected result = %v", got)
	}
}

func TestNoQueriesNoWork(t *testing.T) {
	l := stockLayout()
	e, _ := New(l, nil, nil)
	e.Ingest(0, mk(1, 2))
	if st := e.Stats(); st.Ingested != 0 {
		t.Errorf("tuple entered eddy with no standing queries: %+v", st)
	}
}

func TestEmptyFootprintRejected(t *testing.T) {
	e, _ := New(stockLayout(), nil, nil)
	if _, err := e.AddQuery(0, nil, nil, nil); err == nil {
		t.Error("empty footprint accepted")
	}
}

func TestSharedWorkBeatsPerQuery(t *testing.T) {
	// The E5 claim in miniature: shared grouped-filter evaluation does
	// far fewer predicate evaluations than per-query processing.
	l := stockLayout()
	rng := rand.New(rand.NewSource(3))
	const nq, nt = 200, 500
	var conjs []expr.Conjunction
	e, _ := New(l, nil, nil)
	for q := 0; q < nq; q++ {
		lo := int64(rng.Intn(90))
		conj := expr.Conjunction{
			{Col: 1, Op: expr.Ge, Val: tuple.Int(lo)},
			{Col: 1, Op: expr.Le, Val: tuple.Int(lo + 10)},
		}
		conjs = append(conjs, conj)
		if _, err := e.AddQuery(1, []expr.Predicate(conj), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	ref := baseline.NewPerQuery(conjs)
	for i := 0; i < nt; i++ {
		tp := mk(0, int64(rng.Intn(100)))
		ref.Process(tp)
		e.Ingest(0, tp)
	}
	// Shared work metric: eddy module visits — one grouped-filter visit
	// per tuple (all factors on one column) vs nq predicate evals each.
	shared := e.Stats().Visits
	perQuery := ref.Evals
	if shared*10 > perQuery {
		t.Errorf("shared visits %d not ≪ per-query evals %d", shared, perQuery)
	}
}

func TestWindowEviction(t *testing.T) {
	l := joinLayout()
	spec := []JoinSpec{{StreamA: 0, StreamB: 1, ColA: 0, ColB: 2, TimeKind: window.Logical}}
	e, _ := New(l, spec, nil)
	var got int
	if _, err := e.AddQuery(3, nil, nil, func(*tuple.Tuple) { got++ }); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		tp := mk(1, i)
		tp.Seq = i
		e.Ingest(0, tp)
	}
	if n := e.EvictWindows(3); n != 3 {
		t.Errorf("evicted %d, want 3", n)
	}
	tp := mk(1, 99)
	tp.Seq = 100
	e.Ingest(1, tp)
	if got != 3 { // only S tuples with Seq >= 3 remain
		t.Errorf("matches after eviction = %d, want 3", got)
	}
}

// TestNewRejectsOversizedLayout: a shared super-query over a layout wider
// than 64 columns builds (grouped filters come one per column a query
// selects on), and the query that would need module 65 is refused with a
// descriptive error instead of a panic in the eddy, while the engine keeps
// serving the queries already standing.
func TestNewRejectsOversizedLayout(t *testing.T) {
	cols := make([]tuple.Column, 70)
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt}
	}
	layout := tuple.NewLayout(tuple.NewSchema("wide", cols...))
	e, err := New(layout, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	for c := range counts {
		c := c
		sel := []expr.Predicate{{Col: c, Op: expr.Ge, Val: tuple.Int(0)}}
		if _, err := e.AddQuery(1, sel, nil, func(*tuple.Tuple) { counts[c]++ }); err != nil {
			t.Fatalf("query on column %d: %v", c, err)
		}
	}
	// Column 64's filter would be module 65; one more factor on column 0
	// rides filter 1 and fits.
	_, err = e.AddQuery(1, []expr.Predicate{
		{Col: 0, Op: expr.Le, Val: tuple.Int(9)},
		{Col: 64, Op: expr.Ge, Val: tuple.Int(0)},
	}, nil, func(*tuple.Tuple) { t.Error("refused query delivered") })
	if err == nil {
		t.Fatal("query needing module 65 accepted")
	}
	if !strings.Contains(err.Error(), "64") {
		t.Fatalf("error %q does not mention the 64-module cap", err)
	}
	if _, err := e.AddQuery(1, []expr.Predicate{{Col: 0, Op: expr.Le, Val: tuple.Int(9)}}, nil, nil); err != nil {
		t.Fatalf("query on an existing filter's column refused: %v", err)
	}
	vals := make([]int64, 70)
	e.Ingest(0, mk(vals...))
	for c, n := range counts {
		if n != 1 {
			t.Fatalf("query on column %d got %d results after the refusal, want 1", c, n)
		}
	}
	if e.QueryCount() != 65 || len(e.Host().Modules()) != 64 {
		t.Fatalf("%d queries over %d modules, want 65 over 64", e.QueryCount(), len(e.Host().Modules()))
	}
}

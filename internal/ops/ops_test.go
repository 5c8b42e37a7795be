package ops

import (
	"math/rand"
	"testing"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func singleLayout() *tuple.Layout {
	return tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt},
		tuple.Column{Name: "y", Kind: tuple.KindFloat}))
}

func mk(l *tuple.Layout, x int64, y float64) *tuple.Tuple {
	return l.Widen(0, tuple.New(tuple.Int(x), tuple.Float(y)))
}

func TestFilterModule(t *testing.T) {
	l := singleLayout()
	f := NewFilter("f", l, expr.Predicate{Col: 0, Op: expr.Ge, Val: tuple.Int(5)})
	if !f.AppliesTo(tuple.SingleSource(0)) {
		t.Error("filter should apply to its stream")
	}
	if f.AppliesTo(tuple.SingleSource(1)) {
		t.Error("filter applied to foreign stream")
	}
	if _, pass := f.Process(mk(l, 7, 0)); !pass {
		t.Error("7 >= 5 should pass")
	}
	if _, pass := f.Process(mk(l, 3, 0)); pass {
		t.Error("3 >= 5 should fail")
	}
}

func TestCostedFilterBurnsAndFilters(t *testing.T) {
	l := singleLayout()
	f := NewCostedFilter("slow", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(5)}, 100)
	if _, pass := f.Process(mk(l, 3, 0)); !pass {
		t.Error("costed filter wrong result")
	}
}

func TestAggregatorGrouped(t *testing.T) {
	l := singleLayout()
	var ts []*tuple.Tuple
	// Group x%2: evens {0,2,4}, odds {1,3}.
	for i := int64(0); i < 5; i++ {
		ts = append(ts, mk(l, i%2, float64(i)))
	}
	agg := NewAggregator([]int{0},
		AggSpec{Fn: Count, Col: -1},
		AggSpec{Fn: Sum, Col: 1},
		AggSpec{Fn: Min, Col: 1},
		AggSpec{Fn: Max, Col: 1},
		AggSpec{Fn: Avg, Col: 1},
	)
	out := agg.Compute(ts)
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	// First-seen order: group 0 first.
	g0 := out[0]
	if g0.Vals[0].AsInt() != 0 || g0.Vals[1].AsInt() != 3 || g0.Vals[2].AsFloat() != 6 {
		t.Errorf("group0 = %v", g0.Vals)
	}
	if g0.Vals[3].AsFloat() != 0 || g0.Vals[4].AsFloat() != 4 || g0.Vals[5].AsFloat() != 2 {
		t.Errorf("group0 min/max/avg = %v", g0.Vals)
	}
	g1 := out[1]
	if g1.Vals[0].AsInt() != 1 || g1.Vals[1].AsInt() != 2 || g1.Vals[2].AsFloat() != 4 {
		t.Errorf("group1 = %v", g1.Vals)
	}
}

func TestAggregatorEmptyInput(t *testing.T) {
	agg := NewAggregator(nil, AggSpec{Fn: Count, Col: -1})
	if out := agg.Compute(nil); len(out) != 0 {
		t.Errorf("empty input produced %d groups", len(out))
	}
}

// TestLandmarkVsSlidingMax reproduces the §4.1.2 observation: a landmark
// MAX can be computed iteratively with no retention, and must agree with a
// full recomputation over the landmark window at every step.
func TestLandmarkVsSlidingMax(t *testing.T) {
	l := singleLayout()
	rng := rand.New(rand.NewSource(4))
	inc := NewLandmarkAgg(AggSpec{Fn: Max, Col: 1})
	full := NewAggregator(nil, AggSpec{Fn: Max, Col: 1})
	var hist []*tuple.Tuple
	for i := 0; i < 200; i++ {
		tp := mk(l, int64(i), rng.Float64()*100)
		inc.Add(tp)
		hist = append(hist, tp)
		wantRow := full.Compute(hist)
		got := inc.Result().Vals[0].AsFloat()
		want := wantRow[0].Vals[0].AsFloat()
		if got != want {
			t.Fatalf("step %d: incremental %f != full %f", i, got, want)
		}
	}
}

func TestLandmarkAggReset(t *testing.T) {
	l := singleLayout()
	inc := NewLandmarkAgg(AggSpec{Fn: Count, Col: -1})
	inc.Add(mk(l, 1, 1))
	inc.Reset()
	if inc.Result().Vals[0].AsInt() != 0 {
		t.Error("reset did not clear")
	}
}

func TestProject(t *testing.T) {
	l := singleLayout()
	p := NewProject(1)
	tp := mk(l, 7, 2.5)
	tp.TS = 11
	tp.Queries = tuple.NewBitset(8)
	tp.Queries.Set(3)
	out := p.Apply(tp)
	if len(out.Vals) != 1 || out.Vals[0].AsFloat() != 2.5 || out.TS != 11 {
		t.Errorf("project = %+v", out)
	}
	if out.Queries != nil {
		t.Errorf("projected row carries lineage %v, want none", out.Queries)
	}
}

func TestDupElim(t *testing.T) {
	l := singleLayout()
	d := NewDupElim(0)
	if !d.Accept(mk(l, 1, 0)) || d.Accept(mk(l, 1, 9)) {
		t.Error("dupelim on col 0 misbehaves")
	}
	if !d.Accept(mk(l, 2, 0)) {
		t.Error("new key rejected")
	}
	d.Reset()
	if !d.Accept(mk(l, 1, 0)) {
		t.Error("reset did not clear")
	}
}

func TestDupElimAllColumns(t *testing.T) {
	l := singleLayout()
	d := NewDupElim()
	a := mk(l, 1, 2)
	if !d.Accept(a) {
		t.Error("first rejected")
	}
	if d.Accept(mk(l, 1, 2)) {
		t.Error("identical tuple accepted")
	}
	if !d.Accept(mk(l, 1, 3)) {
		t.Error("differing tuple rejected")
	}
}

func TestSortTuples(t *testing.T) {
	l := singleLayout()
	ts := []*tuple.Tuple{mk(l, 3, 0), mk(l, 1, 0), mk(l, 2, 0)}
	SortTuples(ts, 0, true)
	for i, want := range []int64{1, 2, 3} {
		if ts[i].Vals[0].AsInt() != want {
			t.Fatalf("asc sort = %v", ts)
		}
	}
	SortTuples(ts, 0, false)
	if ts[0].Vals[0].AsInt() != 3 {
		t.Errorf("desc sort = %v", ts)
	}
}

func TestJugglePriorityOrder(t *testing.T) {
	l := singleLayout()
	j := NewJuggle(10, func(t *tuple.Tuple) float64 { return t.Vals[1].AsFloat() })
	for _, y := range []float64{1, 5, 3, 2, 4} {
		if ev := j.Push(mk(l, 0, y)); ev != nil {
			t.Fatal("unexpected eviction")
		}
	}
	var got []float64
	for j.Len() > 0 {
		got = append(got, j.Pop().Vals[1].AsFloat())
	}
	for i, want := range []float64{5, 4, 3, 2, 1} {
		if got[i] != want {
			t.Fatalf("juggle order = %v", got)
		}
	}
}

func TestJuggleEvictsLowestPriority(t *testing.T) {
	l := singleLayout()
	j := NewJuggle(2, func(t *tuple.Tuple) float64 { return t.Vals[1].AsFloat() })
	j.Push(mk(l, 0, 5))
	j.Push(mk(l, 0, 9))
	ev := j.Push(mk(l, 0, 7))
	if ev == nil || ev.Vals[1].AsFloat() != 5 {
		t.Errorf("evicted %v, want priority 5", ev)
	}
	if j.Pop().Vals[1].AsFloat() != 9 {
		t.Error("pop order wrong after eviction")
	}
}

func TestJugglePopEmpty(t *testing.T) {
	j := NewJuggle(1, func(*tuple.Tuple) float64 { return 0 })
	if j.Pop() != nil {
		t.Error("pop from empty juggle")
	}
}

func TestSteMModuleAppliesTo(t *testing.T) {
	s := tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindInt})
	r := tuple.NewSchema("R", tuple.Column{Name: "k", Kind: tuple.KindInt})
	u := tuple.NewSchema("U", tuple.Column{Name: "j", Kind: tuple.KindInt})
	l := tuple.NewLayout(s, r, u)
	// Join S.k = R.k only; SteM on S should not accept U probes.
	modS, _ := BuildSteMPair(l, 0, 1, 0, 1, window.Physical)
	if !modS.AppliesTo(tuple.SingleSource(0)) { // build
		t.Error("SteM_S must accept S builds")
	}
	if !modS.AppliesTo(tuple.SingleSource(1)) { // probe via predicate
		t.Error("SteM_S must accept R probes")
	}
	if modS.AppliesTo(tuple.SingleSource(2)) {
		t.Error("SteM_S must not accept unrelated U probes (Cartesian)")
	}
	if modS.AppliesTo(tuple.SingleSource(0).Union(tuple.SingleSource(1))) {
		t.Error("SteM_S must not accept overlapping SR tuples")
	}
}

// TestSteMModuleNames: the eddy module over a SteM that owns its store is
// SteM(<stream>); over a shared arrangement it is Arr(<stream>), so EXPLAIN,
// TOP and tcq.stats show which state is shared.
func TestSteMModuleNames(t *testing.T) {
	s := tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindInt})
	r := tuple.NewSchema("R", tuple.Column{Name: "k", Kind: tuple.KindInt})
	l := tuple.NewLayout(s, r)
	modS, modR := BuildSteMPair(l, 0, 1, 0, 1, window.Physical)
	if modS.Name() != "SteM(S)" || modR.Name() != "SteM(R)" || modS.SteM().Shared() {
		t.Errorf("private pair named %s / %s, shared=%v", modS.Name(), modR.Name(), modS.SteM().Shared())
	}
	arr := arrange.New(arrange.Options{Name: "S", KeyCol: 0, Windowed: true, TimeKind: window.Physical})
	shared := NewSteMModule(stem.New("S", tuple.SingleSource(0), l, stem.WithIndex(0),
		stem.WithWindowEviction(window.Physical), stem.WithStore(arr)), l, nil)
	if shared.Name() != "Arr(S)" || !shared.SteM().Shared() {
		t.Errorf("front over a shared arrangement named %s, shared=%v", shared.Name(), shared.SteM().Shared())
	}
}

func TestAggSpecString(t *testing.T) {
	if s := (AggSpec{Fn: Count, Col: -1}).String(); s != "COUNT(*)" {
		t.Errorf("got %q", s)
	}
	if s := (AggSpec{Fn: Sum, Col: 3}).String(); s != "SUM($3)" {
		t.Errorf("got %q", s)
	}
}

// TestIncrementalAggregatorMatchesBatch: for random grouped input, folding
// tuples incrementally and snapshotting equals batch recomputation.
func TestIncrementalAggregatorMatchesBatch(t *testing.T) {
	l := singleLayout()
	rng := rand.New(rand.NewSource(8))
	inc := NewIncrementalAggregator([]int{0},
		AggSpec{Fn: Count, Col: -1}, AggSpec{Fn: Sum, Col: 1},
		AggSpec{Fn: Min, Col: 1}, AggSpec{Fn: Max, Col: 1})
	batch := NewAggregator([]int{0},
		AggSpec{Fn: Count, Col: -1}, AggSpec{Fn: Sum, Col: 1},
		AggSpec{Fn: Min, Col: 1}, AggSpec{Fn: Max, Col: 1})
	var all []*tuple.Tuple
	for i := 0; i < 500; i++ {
		tp := mk(l, int64(rng.Intn(7)), rng.Float64()*100)
		inc.Add(tp)
		all = append(all, tp)
		if i%97 == 0 {
			a := inc.Snapshot()
			b := batch.Compute(all)
			if len(a) != len(b) {
				t.Fatalf("step %d: %d vs %d groups", i, len(a), len(b))
			}
			for g := range a {
				for v := range a[g].Vals {
					if !tuple.Equal(a[g].Vals[v], b[g].Vals[v]) {
						t.Fatalf("step %d group %d val %d: %v != %v",
							i, g, v, a[g].Vals[v], b[g].Vals[v])
					}
				}
			}
		}
	}
	if inc.Groups() != 7 {
		t.Errorf("groups = %d", inc.Groups())
	}
}

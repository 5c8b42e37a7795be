package ops

import (
	"fmt"
	"math"
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
	b := &tuple.Batch{Tuples: []*tuple.Tuple{mk(l, 3, 0), mk(l, 7, 0)}}
	if _, passed := f.ProcessBatch(b); passed != 1 || b.Tuples[0].Vals[0].AsInt() != 7 {
		t.Errorf("passed %d, first %v: want only 7 >= 5 to pass", passed, b.Tuples[0].Vals)
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

// TestWarmProbeBatchAllocatesNothing: a probe batch through a SteM module
// whose SteM draws its matches from a warm pool allocates nothing — the
// slice holding the matches is the module's own, reused from batch to batch.
func TestWarmProbeBatchAllocatesNothing(t *testing.T) {
	l := tuple.NewLayout(
		tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "v", Kind: tuple.KindInt}),
		tuple.NewSchema("R", tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "w", Kind: tuple.KindInt}))
	_, modR := BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
	pool := tuple.NewPool()
	modR.SteM().SetRecycler(pool)
	var builds, probes tuple.Batch
	for i := int64(0); i < 64; i++ {
		builds.Append(l.Widen(1, tuple.New(tuple.Int(i%8), tuple.Int(i))))
	}
	modR.ProcessBatch(&builds)
	for i := int64(0); i < 16; i++ {
		probes.Append(l.Widen(0, tuple.New(tuple.Int(i%8), tuple.Int(i))))
	}
	probe := func() {
		out, passed := modR.ProcessBatch(&probes)
		if passed != 16 || len(out) != 16*8 {
			t.Fatalf("probe batch passed %d with %d matches, want 16 with 128", passed, len(out))
		}
		for _, m := range out {
			pool.Put(m)
		}
	}
	probe() // the match slice grows once, and the pool fills
	if a := testing.AllocsPerRun(100, probe); a != 0 {
		t.Errorf("a warm probe batch allocates %.1f objects, want 0", a)
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

// sameRows compares aggregate rows exactly, except float values, which
// may differ in summation order and so only to within 1e-9 relative.
func sameRows(t *testing.T, what string, got, want []*tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for g := range got {
		for v := range got[g].Vals {
			a, b := got[g].Vals[v], want[g].Vals[v]
			if a.K == tuple.KindFloat && b.K == tuple.KindFloat &&
				math.Abs(a.F-b.F) <= 1e-9*math.Max(1, math.Abs(b.F)) {
				continue
			}
			if a != b {
				t.Fatalf("%s: group %d value %d = %v, want %v", what, g, v, a, b)
			}
		}
	}
}

// TestPaneAggLandmarkMatchesBatch: a landmark folded pane by pane, its fired
// panes merged into the prefix, combines to what recomputing over every row
// so far gives — including rows that arrive late, below the live panes.
func TestPaneAggLandmarkMatchesBatch(t *testing.T) {
	l := singleLayout()
	rng := rand.New(rand.NewSource(8))
	specs := []AggSpec{{Fn: Count, Col: -1}, {Fn: Sum, Col: 1},
		{Fn: Min, Col: 1}, {Fn: Max, Col: 1}, {Fn: Avg, Col: 1}}
	const width = 10
	panes := NewPaneAgg([]int{0}, specs, 0, width, true)
	batch := NewAggregator([]int{0}, specs...)
	var all []*tuple.Tuple
	for key := int64(0); key < 500; key++ {
		tp := mk(l, int64(rng.Intn(7)), rng.Float64()*100)
		if rng.Intn(10) == 0 && key > 3*width {
			// Late: two panes behind, into the prefix.
			if !panes.Fold(key-2*width, tp) {
				t.Fatalf("key %d: late landmark row dropped", key-2*width)
			}
		} else if !panes.Fold(key, tp) {
			t.Fatalf("key %d: row dropped", key)
		}
		all = append(all, tp)
		if key%width == width-1 {
			got := panes.Combine(0, key)
			want := batch.Compute(all)
			// Same groups; the pane order may place a late row's group
			// differently, so match by key.
			byKey := map[int64]*tuple.Tuple{}
			for _, r := range want {
				byKey[r.Vals[0].I] = r
			}
			for i, r := range got {
				want[i] = byKey[r.Vals[0].I]
			}
			sameRows(t, fmt.Sprintf("instance ending %d", key), got, want)
			panes.Evict(key + 1)
			if panes.Rows() != 0 || panes.Panes() != 0 {
				t.Fatalf("after evicting through %d: %d rows in %d live panes", key, panes.Rows(), panes.Panes())
			}
		}
	}
	if got := panes.Combine(0, 499); len(got) != 7 {
		t.Errorf("the prefix holds %d groups, want 7", len(got))
	}
	if panes.Fold(-1, mk(l, 0, 1)) {
		t.Error("a row left of the landmark was folded")
	}
}

// TestPaneAggSlidingDropsBelowLivePanes: a sliding window keeps only the
// panes its next instance can reach; a row older than those is dropped, and
// an evicted pane's groups vanish from the next combination.
func TestPaneAggSlidingDropsBelowLivePanes(t *testing.T) {
	l := singleLayout()
	panes := NewPaneAgg([]int{0}, []AggSpec{{Fn: Count, Col: -1}}, 1, 2, false)
	for key := int64(1); key <= 6; key++ {
		panes.Fold(key, mk(l, key, 0)) // one group per key
	}
	if got := panes.Combine(3, 6); len(got) != 4 || got[0].Vals[0].I != 3 {
		t.Fatalf("window [3, 6] = %v", got)
	}
	panes.Evict(3)
	if panes.Fold(2, mk(l, 9, 0)) {
		t.Error("a row below the live panes was folded")
	}
	if panes.Panes() != 2 || panes.Rows() != 4 {
		t.Errorf("%d live panes holding %d rows, want 2 and 4", panes.Panes(), panes.Rows())
	}
	if got := panes.Combine(3, 6); len(got) != 4 {
		t.Errorf("after eviction window [3, 6] = %v", got)
	}
	// Pane index is floored, not truncated: key 0 is pane -1, not pane 0.
	fresh := NewPaneAgg(nil, []AggSpec{{Fn: Count, Col: -1}}, 1, 2, false)
	if fresh.Fold(0, mk(l, 0, 0)) {
		t.Error("a row left of the first window was folded")
	}
}

// TestGroupingComparesKeyValues: NULL and the string "\x00" hash alike
// (one FNV round over a zero byte); they are still two groups, in the
// rescan aggregator and in the pane dictionary.
func TestGroupingComparesKeyValues(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindString}))
	rows := []*tuple.Tuple{
		l.Widen(0, tuple.New(tuple.Null)),
		l.Widen(0, tuple.New(tuple.String_("\x00"))),
		l.Widen(0, tuple.New(tuple.Null)),
	}
	if rows[0].Vals[0].Hash() != rows[1].Vals[0].Hash() {
		t.Fatal("NULL and \"\\x00\" no longer collide; pick another pair")
	}
	count := []AggSpec{{Fn: Count, Col: -1}}
	out := NewAggregator([]int{0}, count...).Compute(rows)
	if len(out) != 2 || out[0].Vals[1].I != 2 || out[1].Vals[1].I != 1 {
		t.Errorf("Compute grouped NULL, \"\\x00\", NULL as %v, want 2 groups counting 2 and 1", out)
	}
	panes := NewPaneAgg([]int{0}, count, 0, 10, false)
	for i, r := range rows {
		panes.Fold(int64(i), r)
	}
	if got := panes.Combine(0, 9); len(got) != 2 || got[0].Vals[1].I != 2 || got[1].Vals[1].I != 1 {
		t.Errorf("panes grouped NULL, \"\\x00\", NULL as %v, want 2 groups counting 2 and 1", got)
	}
}

// TestPaneAggSlidingFreesEvictedGroups: a sliding window over ever-new
// group keys reuses the slots of groups no live pane holds, so the
// dictionary and every pane's slot index stay the size of one window's
// groups; a group still in a live pane keeps its slot and its partials.
func TestPaneAggSlidingFreesEvictedGroups(t *testing.T) {
	l := singleLayout()
	const width = 10 // panes per window, one key each
	panes := NewPaneAgg([]int{0}, []AggSpec{{Fn: Count, Col: -1}, {Fn: Sum, Col: 1}}, 0, 1, false)
	for key := int64(0); key < 1000; key++ {
		panes.Fold(key, mk(l, key, 1)) // a group of its own
		panes.Fold(key, mk(l, -1, 10)) // one group in every pane
		if key < width-1 {
			continue
		}
		got := panes.Combine(key-width+1, key)
		if len(got) != width+1 || got[0].Vals[0].I != key-width+1 || got[1].Vals[0].I != -1 ||
			got[1].Vals[1].I != width || got[1].Vals[2].F != 10*width {
			t.Fatalf("window ending %d = %v", key, got)
		}
		for _, r := range got[2:] {
			if r.Vals[1].I != 1 || r.Vals[0].I <= key-width || r.Vals[0].I > key {
				t.Fatalf("window ending %d holds %v", key, r.Vals)
			}
		}
		panes.Evict(key - width + 2)
	}
	if n := panes.Slots(); n > width+2 {
		t.Errorf("%d group slots after 1,000 keys through a %d-key window", n, width)
	}
	for _, p := range append(append(panes.panes, panes.free...), &panes.window) {
		if len(p.local) > panes.Slots() {
			t.Errorf("pane %d indexes %d slots, the dictionary has %d", p.idx, len(p.local), panes.Slots())
		}
	}
}

// TestPaneAggFreedSlotLeavesItsHashChain: a freed slot is unlinked from
// the chain of keys sharing its hash, head or not, and its key is found no
// more; the colliding key still is.
func TestPaneAggFreedSlotLeavesItsHashChain(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindString}))
	null, zero := l.Widen(0, tuple.New(tuple.Null)), l.Widen(0, tuple.New(tuple.String_("\x00")))
	panes := NewPaneAgg([]int{0}, []AggSpec{{Fn: Count, Col: -1}}, 0, 1, false)
	only := func(key int64, want tuple.Value) {
		t.Helper()
		if got := panes.Combine(key, key); len(got) != 1 || got[0].Vals[0] != want || got[0].Vals[1].I != 1 {
			t.Fatalf("pane %d = %v, want %v counting 1", key, got, want)
		}
	}
	panes.Fold(0, null)
	panes.Fold(0, zero) // "\x00" heads the chain, NULL behind it
	panes.Fold(1, null)
	panes.Evict(1) // frees "\x00", the chain's head
	only(1, tuple.Null)
	panes.Fold(2, zero) // a new group again, heading the chain
	panes.Evict(2)      // frees NULL, the chain's tail
	only(2, zero.Vals[0])
	panes.Evict(3) // frees "\x00", alone in its chain
	panes.Fold(3, null)
	panes.Fold(3, zero)
	panes.Fold(4, null)
	if got := panes.Combine(3, 4); len(got) != 2 || got[0].Vals[1].I != 2 || got[1].Vals[1].I != 1 {
		t.Errorf("panes 3..4 = %v, want NULL counting 2 and \"\\x00\" 1", got)
	}
	if n := panes.Slots(); n != 2 {
		t.Errorf("%d slots for two colliding keys", n)
	}
}

// TestPaneFoldDoesNotAllocate: once a pane and its groups exist, folding a
// row into it allocates nothing.
func TestPaneFoldDoesNotAllocate(t *testing.T) {
	l := singleLayout()
	panes := NewPaneAgg([]int{0}, []AggSpec{{Fn: Avg, Col: 1}, {Fn: Max, Col: 1}}, 0, 100, false)
	rows := make([]*tuple.Tuple, 50)
	for i := range rows {
		rows[i] = mk(l, int64(i%5), float64(i))
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, r := range rows {
			panes.Fold(int64(i), r)
		}
	}); n != 0 {
		t.Errorf("folding %d rows allocates %.1f times", len(rows), n)
	}
}

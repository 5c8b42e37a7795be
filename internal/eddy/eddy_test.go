package eddy

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// twoStreamLayout builds S(k, v) and T(k, w).
func twoStreamLayout() *tuple.Layout {
	s := tuple.NewSchema("S",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt})
	tt := tuple.NewSchema("T",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "w", Kind: tuple.KindInt})
	return tuple.NewLayout(s, tt)
}

func widen(l *tuple.Layout, stream int, ts int64, vals ...tuple.Value) *tuple.Tuple {
	base := tuple.New(vals...)
	base.TS = ts
	base.Seq = ts
	return l.Widen(stream, base)
}

// symmetric join harness: returns collected outputs after interleaving n
// tuples per side with keys i%mod.
func runSymmetricJoin(t *testing.T, policy Policy, n int, mod int64) []*tuple.Tuple {
	t.Helper()
	l := twoStreamLayout()
	modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
	var out []*tuple.Tuple
	e := New(tuple.SingleSource(0).Union(tuple.SingleSource(1)), policy,
		func(tp *tuple.Tuple) { out = append(out, tp) }, modS, modT)
	for i := 0; i < n; i++ {
		k := int64(i) % mod
		e.Ingest(widen(l, 0, int64(i), tuple.Int(k), tuple.Int(int64(i))))
		e.Ingest(widen(l, 1, int64(i), tuple.Int(k), tuple.Int(int64(-i))))
	}
	return out
}

func TestSymmetricJoinCompleteness(t *testing.T) {
	// With n tuples per side and keys i%mod, expected matches =
	// sum over keys of countS(k)*countT(k).
	const n, mod = 30, 5
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[int64(i)%mod]++
	}
	want := 0
	for _, c := range counts {
		want += c * c
	}
	for name, p := range map[string]Policy{
		"default":     NewFixedPolicy(),
		"lottery":     NewLotteryPolicy(1),
		"fixed":       NewFixedPolicy(0, 1),
		"selectivity": NewSelectivityPolicy(1),
	} {
		out := runSymmetricJoin(t, p, n, mod)
		if len(out) != want {
			t.Errorf("%s policy: %d matches, want %d", name, len(out), want)
		}
	}
}

func TestSymmetricJoinNoDuplicates(t *testing.T) {
	out := runSymmetricJoin(t, NewLotteryPolicy(7), 20, 3)
	seen := map[string]bool{}
	for _, m := range out {
		key := fmt.Sprint(m.Vals)
		if seen[key] {
			t.Fatalf("duplicate match %s", key)
		}
		seen[key] = true
	}
}

func TestFilterThenJoin(t *testing.T) {
	// S.v > 4 AND S.k = T.k; only S tuples with v>4 should join.
	l := twoStreamLayout()
	modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
	filt := ops.NewFilter("S.v>4", l, expr.Predicate{Col: 1, Op: expr.Gt, Val: tuple.Int(4)})
	var out []*tuple.Tuple
	e := New(3, NewLotteryPolicy(42), func(tp *tuple.Tuple) { out = append(out, tp) },
		filt, modS, modT)
	for i := int64(0); i < 10; i++ {
		e.Ingest(widen(l, 0, i, tuple.Int(1), tuple.Int(i)))
	}
	e.Ingest(widen(l, 1, 100, tuple.Int(1), tuple.Int(0)))
	// S tuples with v in 5..9 pass the filter: 5 matches.
	if len(out) != 5 {
		t.Fatalf("matches = %d, want 5", len(out))
	}
	for _, m := range out {
		if m.Vals[1].AsInt() <= 4 {
			t.Errorf("filtered tuple leaked: %v", m)
		}
	}
}

// TestFilterAppliesBeforeOrAfterJoin verifies commutativity: whatever order
// the policy chooses, results are identical to the filtered cross-check.
func TestFilterJoinCommutativity(t *testing.T) {
	build := func(policy Policy) int {
		l := twoStreamLayout()
		modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
		filtS := ops.NewFilter("S.v%2", l, expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(3)})
		filtT := ops.NewFilter("T.w", l, expr.Predicate{Col: 3, Op: expr.Le, Val: tuple.Int(7)})
		n := 0
		e := New(3, policy, func(*tuple.Tuple) { n++ }, filtS, filtT, modS, modT)
		for i := int64(0); i < 12; i++ {
			e.Ingest(widen(l, 0, i, tuple.Int(i%4), tuple.Int(i)))
			e.Ingest(widen(l, 1, i, tuple.Int(i%4), tuple.Int(i)))
		}
		return n
	}
	// Reference: brute force.
	want := 0
	for i := int64(0); i < 12; i++ {
		for j := int64(0); j < 12; j++ {
			if i%4 == j%4 && i >= 3 && j <= 7 {
				want++
			}
		}
	}
	for name, p := range map[string]Policy{
		"default":  NewFixedPolicy(),
		"lottery1": NewLotteryPolicy(1),
		"lottery2": NewLotteryPolicy(99),
		"fixedFwd": NewFixedPolicy(0, 1, 2, 3),
		"fixedRev": NewFixedPolicy(3, 2, 1, 0),
	} {
		if got := build(p); got != want {
			t.Errorf("%s: %d results, want %d", name, got, want)
		}
	}
}

func TestLotteryFavorsSelectiveFilter(t *testing.T) {
	// Two filters on one stream: A passes 90%, B passes 10%. The lottery
	// should route most tuples to B first (it earns more tickets).
	l := tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt}))
	fA := ops.NewFilter("A", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(90)})
	fB := ops.NewFilter("B", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(10)})
	pol := NewLotteryPolicy(5)
	e := New(tuple.SingleSource(0), pol, nil, fA, fB)
	for i := int64(0); i < 5000; i++ {
		e.Ingest(widen(l, 0, i, tuple.Int(i%100)))
	}
	st := e.Stats()
	// B must be visited more than A: routing B first kills 90% of tuples
	// before they ever reach A.
	if st.Modules[1].Visits <= st.Modules[0].Visits {
		t.Errorf("lottery did not favor selective filter: A=%d visits, B=%d visits",
			st.Modules[0].Visits, st.Modules[1].Visits)
	}
	// Total work must beat the worst static order (A first: 2 visits per
	// tuple minus those dropped by A = 5000 + 4500).
	if st.Visits >= 5000+4500 {
		t.Errorf("lottery total visits %d not better than worst static order", st.Visits)
	}
}

func TestLotteryAdaptsToDrift(t *testing.T) {
	// Selectivities flip halfway: A selective first, then B. A static plan
	// pays full price in one half; the lottery re-learns.
	l := tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt},
		tuple.Column{Name: "phase", Kind: tuple.KindInt}))
	// Filter A: passes when x >= 10 in phase 0 (10% drop... inverted below).
	mkRun := func(policy Policy) int64 {
		fA := ops.NewFilter("A", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(10)})
		fB := ops.NewFilter("B", l, expr.Predicate{Col: 1, Op: expr.Lt, Val: tuple.Int(10)})
		e := New(tuple.SingleSource(0), policy, nil, fA, fB)
		const n = 4000
		for i := int64(0); i < n; i++ {
			var a, b int64
			if i < n/2 {
				a, b = i%100, i%10 // A drops 90%, B drops nothing
			} else {
				a, b = i%10, i%100 // B drops 90%, A drops nothing
			}
			e.Ingest(widen(l, 0, i, tuple.Int(a), tuple.Int(b)))
		}
		return e.Stats().Visits
	}
	adaptive := mkRun(NewLotteryPolicy(3))
	staticA := mkRun(NewFixedPolicy(0, 1))
	staticB := mkRun(NewFixedPolicy(1, 0))
	// The adaptive run should be no worse than ~10% above the best static
	// oracle for each half; in particular it must beat both pure static
	// orders, each of which is wrong for one half.
	if adaptive >= staticA || adaptive >= staticB {
		t.Errorf("adaptive visits %d not better than static (%d, %d)",
			adaptive, staticA, staticB)
	}
}

func TestEddyStatsAndDrops(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt}))
	f := ops.NewFilter("f", l, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(5)})
	var out int
	e := New(tuple.SingleSource(0), nil, func(*tuple.Tuple) { out++ }, f)
	for i := int64(0); i < 10; i++ {
		e.Ingest(widen(l, 0, i, tuple.Int(i)))
	}
	st := e.Stats()
	if st.Ingested != 10 || st.Emitted != 5 || st.Dropped != 5 {
		t.Errorf("stats = %+v", st)
	}
	if out != 5 {
		t.Errorf("outputs = %d", out)
	}
	if sel := st.Modules[0].Selectivity(); sel != 0.5 {
		t.Errorf("selectivity = %f", sel)
	}
}

func TestEddySharedLineageDrop(t *testing.T) {
	// A tuple whose lineage empties is dropped even if it passes modules.
	l := tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt}))
	var out int
	e := New(tuple.SingleSource(0), nil, func(*tuple.Tuple) { out++ })
	tp := widen(l, 0, 0, tuple.Int(1))
	tp.Queries = tuple.NewBitset(1) // registered but empty lineage
	e.Ingest(tp)
	if out != 0 {
		t.Error("tuple with dead lineage reached output")
	}
	if e.Stats().Dropped != 1 {
		t.Errorf("dropped = %d", e.Stats().Dropped)
	}
}

// TestBuiltRowsAreReleased: a SteM keeps a build row's values, not the row,
// so a built row whose routing ends goes to the release func like any other
// — dead unless the tracer follows it — and scribbling over it afterwards
// changes no later match. The emitted match is not released.
func TestBuiltRowsAreReleased(t *testing.T) {
	l := tuple.NewLayout(
		tuple.NewSchema("S", tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "v", Kind: tuple.KindInt}),
		tuple.NewSchema("R", tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "w", Kind: tuple.KindInt}))
	modS, modR := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
	var out []*tuple.Tuple
	e := New(tuple.SingleSource(0)|tuple.SingleSource(1), nil, func(t *tuple.Tuple) { out = append(out, t) }, modS, modR)
	var released []*tuple.Tuple
	e.SetRelease(func(t *tuple.Tuple, _ tuple.Bitset, rowDead bool) {
		if !rowDead {
			t.Vals = nil // flag it: a row a live holder keeps
		}
		released = append(released, t)
	})
	s := widen(l, 0, 1, tuple.Int(7), tuple.Int(70))
	e.Ingest(s)
	if len(released) != 1 || released[0] != s || s.Vals == nil {
		t.Fatalf("the built S row was not released as dead: %v", released)
	}
	s.Vals[0], s.Vals[1] = tuple.Int(8), tuple.Int(80) // the row is the pool's now
	r := widen(l, 1, 2, tuple.Int(7), tuple.Int(700))
	e.Ingest(r)
	if len(out) != 1 || out[0].Vals[1].I != 70 || out[0].Vals[3].I != 700 {
		t.Fatalf("join output %v, want one match of the values S was built with", out)
	}
	if len(released) != 2 || released[1] != r {
		t.Fatalf("released %d rows, want the two built ones (not the match)", len(released))
	}
}

// TestPlanReusedPerSignature pins §4.3's "batching tuples" as the eddy
// does it: with N-way planning on, one ChooseOrder plan serves every
// batches of a lineage signature before the policy is asked again.
func TestPlanReusedPerSignature(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S", tuple.Column{Name: "x", Kind: tuple.KindInt}))
	keep := func(name string) Module {
		return ops.NewFilter(name, l, expr.Predicate{Col: 0, Op: expr.Ge, Val: tuple.Int(0)})
	}
	p := &countingPolicy{}
	e := New(tuple.SingleSource(0), p, nil, keep("A"), keep("B"))
	e.SetNWay(8)
	for i := int64(0); i < 64; i++ {
		e.Ingest(widen(l, 0, i, tuple.Int(i)))
	}
	// The second hop has one ready module: no plan, one per-hop Choose.
	st := e.Stats()
	if p.orders != 8 || st.Orders != 8 || st.OrderReuses != 56 {
		t.Errorf("policy planned %d times, stats orders=%d reuses=%d; want 8, 8, 56",
			p.orders, st.Orders, st.OrderReuses)
	}
}

type countingPolicy struct{ orders int }

func (c *countingPolicy) Reset(int) {}
func (c *countingPolicy) Choose(_ *tuple.Tuple, ready uint64) int {
	return setBits(ready)[0]
}
func (c *countingPolicy) ChooseOrder(_ uint64, ready uint64) []int {
	c.orders++
	return setBits(ready)
}
func (c *countingPolicy) Observe(int, bool, int)   {}
func (c *countingPolicy) CurrentOrder(n int) []int { return nil }

func TestTooManyModulesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("65 modules did not panic")
		}
	}()
	mods := make([]Module, 65)
	l := tuple.NewLayout(tuple.NewSchema("S", tuple.Column{Name: "x", Kind: tuple.KindInt}))
	for i := range mods {
		mods[i] = ops.NewFilter("f", l, expr.Predicate{Col: 0, Op: expr.Ge, Val: tuple.Int(0)})
	}
	New(1, nil, nil, mods...)
}

// TestJoinEquivalenceQuick: for random interleaved inputs and any policy,
// the eddy's symmetric join emits exactly the brute-force join.
func TestJoinEquivalenceQuick(t *testing.T) {
	f := func(sKeys, tKeys []uint8, seed int64) bool {
		l := twoStreamLayout()
		modS, modT := ops.BuildSteMPair(l, 0, 1, 0, 2, window.Physical)
		got := 0
		e := New(3, NewLotteryPolicy(seed), func(*tuple.Tuple) { got++ }, modS, modT)
		max := len(sKeys)
		if len(tKeys) > max {
			max = len(tKeys)
		}
		for i := 0; i < max; i++ {
			if i < len(sKeys) {
				e.Ingest(widen(l, 0, int64(i), tuple.Int(int64(sKeys[i]%8)), tuple.Int(int64(i))))
			}
			if i < len(tKeys) {
				e.Ingest(widen(l, 1, int64(i), tuple.Int(int64(tKeys[i]%8)), tuple.Int(int64(i))))
			}
		}
		want := 0
		for _, s := range sKeys {
			for _, r := range tKeys {
				if s%8 == r%8 {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestModuleCapRejected pins the 64-module ceiling: the Done lineage
// bitmap is a uint64, so a 65th module has no bit to claim. The check
// must fail with a descriptive error, and New must refuse (not corrupt
// routing state) when handed an oversized module set.
func TestModuleCapRejected(t *testing.T) {
	if err := CheckModuleCount(64); err != nil {
		t.Fatalf("64 modules must fit: %v", err)
	}
	err := CheckModuleCount(65)
	if err == nil {
		t.Fatal("65 modules accepted")
	}
	for _, want := range []string{"65", "64", "eddy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	l := twoStreamLayout()
	mods := make([]Module, 65)
	for i := range mods {
		mods[i] = ops.NewFilter(fmt.Sprintf("f%d", i), l,
			expr.Predicate{Col: 1, Op: expr.Ge, Val: tuple.Int(0)})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted 65 modules")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "64") {
			t.Errorf("panic %q does not mention the 64-module cap", msg)
		}
	}()
	New(3, nil, func(*tuple.Tuple) {}, mods...)
}

package gfilter

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

func TestSingleFactorClasses(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(10)})
	g.Add(1, expr.Predicate{Col: 0, Op: expr.Ge, Val: tuple.Int(10)})
	g.Add(2, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(10)})
	g.Add(3, expr.Predicate{Col: 0, Op: expr.Le, Val: tuple.Int(10)})
	g.Add(4, expr.Predicate{Col: 0, Op: expr.Eq, Val: tuple.Int(10)})
	g.Add(5, expr.Predicate{Col: 0, Op: expr.Ne, Val: tuple.Int(10)})

	check := func(v int64, wantPass ...int) {
		t.Helper()
		failing := g.Failing(tuple.Int(v))
		pass := map[int]bool{}
		for _, q := range wantPass {
			pass[q] = true
		}
		for q := 0; q <= 5; q++ {
			if failing.Test(q) == pass[q] {
				t.Errorf("v=%d query %d: failing=%v, want pass=%v",
					v, q, failing.Test(q), pass[q])
			}
		}
	}
	check(9, 2, 3, 5)  // > and >= fail; <, <=, <> pass; = fails
	check(10, 1, 3, 4) // >= , <=, = pass
	check(11, 0, 1, 5) // >, >=, <> pass
}

func TestMultiFactorRangeQuery(t *testing.T) {
	// Query 0: 5 < x < 15 — two factors on the same attribute; both must
	// hold, and a failure of either clears the bit.
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(5)})
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.Int(15)})
	for v, pass := range map[int64]bool{4: false, 5: false, 6: true, 14: true, 15: false} {
		if got := !g.Failing(tuple.Int(v)).Test(0); got != pass {
			t.Errorf("v=%d pass=%v, want %v", v, got, pass)
		}
	}
}

func TestApplyClearsLineage(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(50)})
	g.Add(1, expr.Predicate{Col: 0, Op: expr.Le, Val: tuple.Int(50)})
	tp := tuple.New(tuple.Int(60))
	tp.Queries = tuple.NewBitset(2)
	tp.Queries.SetAll(2)
	if !g.Apply(tp) {
		t.Fatal("no query survived")
	}
	if !tp.Queries.Test(0) || tp.Queries.Test(1) {
		t.Errorf("lineage = %v", tp.Queries)
	}
}

func TestRemoveQuery(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(10)})
	g.Add(1, expr.Predicate{Col: 0, Op: expr.Eq, Val: tuple.Int(3)})
	g.Remove(0)
	if g.Registered().Test(0) {
		t.Error("query 0 still registered")
	}
	if g.Len() != 1 {
		t.Errorf("len = %d", g.Len())
	}
	// Query 0's factor must no longer fail anything.
	if g.Failing(tuple.Int(5)).Test(0) {
		t.Error("removed query still fails tuples")
	}
}

func TestStringFactors(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Eq, Val: tuple.String_("MSFT")})
	g.Add(1, expr.Predicate{Col: 0, Op: expr.Ne, Val: tuple.String_("MSFT")})
	g.Add(2, expr.Predicate{Col: 0, Op: expr.Lt, Val: tuple.String_("N")})
	f := g.Failing(tuple.String_("MSFT"))
	if f.Test(0) || !f.Test(1) || f.Test(2) {
		t.Errorf("failing for MSFT = %v", f)
	}
	f = g.Failing(tuple.String_("ORCL"))
	if !f.Test(0) || f.Test(1) || !f.Test(2) {
		t.Errorf("failing for ORCL = %v", f)
	}
}

// naiveFails is the reference: a query fails on tp iff one of its
// factors does not hold (Predicate.Eval, one factor at a time).
func naiveFails(ps []expr.Predicate, tp *tuple.Tuple) bool {
	for _, p := range ps {
		if !p.Eval(tp) {
			return true
		}
	}
	return false
}

// exactCmp orders two numbers other than NaN independently of
// tuple.Compare: two integers or two floats as themselves, an integer and
// a float as float64s while the integer is within ±2^53, which float64
// holds exactly, and through math/big beyond. ok is false for any other
// pair.
func exactCmp(a, b tuple.Value) (c int, ok bool) {
	isInt := func(x tuple.Value) bool { return x.Numeric() && x.K != tuple.KindFloat }
	isNum := func(x tuple.Value) bool { return isInt(x) || x.K == tuple.KindFloat && !math.IsNaN(x.F) }
	switch {
	case !isNum(a) || !isNum(b):
		return 0, false
	case isInt(a) && isInt(b):
		return cmp.Compare(a.I, b.I), true
	case !isInt(a) && !isInt(b):
		return cmp.Compare(a.F, b.F), true
	}
	i, f, sign := a.I, b.F, 1
	if !isInt(a) {
		i, f, sign = b.I, a.F, -1
	}
	if -1<<53 <= i && i <= 1<<53 {
		return sign * cmp.Compare(float64(i), f), true
	}
	return sign * new(big.Float).SetInt64(i).Cmp(new(big.Float).SetFloat64(f)), true
}

// exactFails is naiveFails by exactCmp, where it can order v against every
// constant of ps: a reference a Compare that rounds through float64 cannot
// bend.
func exactFails(ps []expr.Predicate, v tuple.Value) (fails, ok bool) {
	for _, p := range ps {
		c, ok := exactCmp(v, p.Val)
		if !ok {
			return false, false
		}
		switch p.Op {
		case expr.Eq:
			fails = fails || c != 0
		case expr.Ne:
			fails = fails || c == 0
		case expr.Lt:
			fails = fails || c >= 0
		case expr.Le:
			fails = fails || c > 0
		case expr.Gt:
			fails = fails || c <= 0
		case expr.Ge:
			fails = fails || c < 0
		default:
			return false, false
		}
	}
	return fails, true
}

// checkProbe fails t unless both Failing and Apply agree with naiveFails
// on v for every query in preds, naiveFails agrees with exact arithmetic
// wherever exactFails applies, and neither touches any other query.
func checkProbe(t *testing.T, g *GroupedFilter, preds map[int][]expr.Predicate, v tuple.Value, ctx string) {
	t.Helper()
	failing := g.Failing(v)
	width := g.maxQuery + 1
	tp := tuple.New(v)
	tp.Queries = tuple.NewBitset(width)
	tp.Queries.SetAll(width)
	g.Apply(tp)
	nfail := 0
	for q, ps := range preds {
		want := naiveFails(ps, tp)
		if want {
			nfail++
		}
		if exact, ok := exactFails(ps, v); ok && exact != want {
			t.Fatalf("%s v=%v q=%d %v: Eval fails=%v, exact arithmetic fails=%v", ctx, v, q, ps, want, exact)
		}
		if got := failing.Test(q); got != want {
			t.Fatalf("%s v=%v q=%d %v: Failing=%v, naive=%v", ctx, v, q, ps, got, want)
		}
		if got := !tp.Queries.Test(q); got != want {
			t.Fatalf("%s v=%v q=%d %v: Apply cleared=%v, naive fails=%v", ctx, v, q, ps, got, want)
		}
	}
	if n := failing.Count(); n != nfail {
		t.Fatalf("%s v=%v: Failing has %d queries, naive %d", ctx, v, n, nfail)
	}
	if n := width - tp.Queries.Count(); n != nfail {
		t.Fatalf("%s v=%v: Apply cleared %d queries, naive fails %d", ctx, v, n, nfail)
	}
}

// probesAround returns every constant in preds as itself, ±1 as INT and
// ±0.5 as FLOAT, plus NULL, strings, NaN and the infinities.
func probesAround(preds map[int][]expr.Predicate) []tuple.Value {
	seen := map[tuple.Value]bool{}
	var out []tuple.Value
	add := func(vs ...tuple.Value) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	add(tuple.Null, tuple.String_(""), tuple.String_("m"), tuple.Float(math.NaN()),
		tuple.Float(math.Inf(-1)), tuple.Float(math.Inf(1)))
	for _, ps := range preds {
		for _, p := range ps {
			x := p.Val.AsFloat()
			add(p.Val, tuple.Int(int64(x)-1), tuple.Int(int64(x)+1),
				tuple.Float(x-0.5), tuple.Float(x+0.5))
			if p.Val.K != tuple.KindFloat { // exactly, past where float64 rounds
				add(tuple.Int(p.Val.I-1), tuple.Int(p.Val.I+1), tuple.Time(p.Val.I), tuple.Float(x))
			}
		}
	}
	return out
}

// TestEquivalenceWithNaive is the load-bearing property test: for random
// factor sets and probe values, the grouped filter agrees exactly with
// per-factor evaluation. The query counts reach both spacing regimes: up
// to 1,000 queries every ordered factor has its own union, at 5,000 the
// union budget spaces the boundaries out and probes clear stragglers.
// Constants mix INT, FLOAT and TIME on one column, INT and TIME also past
// 2^53 where float64 rounds them; probes cover every constant, ±1, ±0.5,
// NULL, strings and NaN; queries leave and rejoin between probe rounds.
func TestEquivalenceWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ops := []expr.Op{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	constant := func() tuple.Value {
		switch rng.Intn(5) {
		case 0:
			return tuple.Int(int64(rng.Intn(100)))
		case 1:
			return tuple.Float(float64(rng.Intn(200)) / 2)
		case 2:
			return tuple.Int(1<<53 - 2 + int64(rng.Intn(5))) // float64 rounds the odd ones
		case 3:
			return tuple.Time(1_700_000_000_000_000_000 + int64(rng.Intn(300))) // unix ns
		default:
			return tuple.Time(int64(rng.Intn(100)))
		}
	}
	factors := func() []expr.Predicate {
		ps := make([]expr.Predicate, 1+rng.Intn(3))
		for f := range ps {
			ps[f] = expr.Predicate{Col: 0, Op: ops[rng.Intn(len(ops))], Val: constant()}
		}
		return ps
	}
	for _, c := range []struct{ queries, trials int }{{1, 50}, {40, 20}, {1000, 2}, {5000, 1}} {
		for trial := 0; trial < c.trials; trial++ {
			g := New(0, tuple.SingleSource(0))
			preds := map[int][]expr.Predicate{}
			for q := 0; q < c.queries; q++ {
				preds[q] = factors()
				for _, p := range preds[q] {
					g.Add(q, p)
				}
			}
			for round := 0; round < 3; round++ {
				ctx := fmt.Sprintf("queries=%d trial=%d round=%d", c.queries, trial, round)
				for _, v := range probesAround(preds) {
					checkProbe(t, g, preds, v, ctx)
				}
				// A quarter of the queries leave; some come back with new
				// factors.
				for q := 0; q < c.queries; q++ {
					switch rng.Intn(8) {
					case 0, 1:
						g.Remove(q)
						delete(preds, q)
					case 2:
						g.Remove(q)
						preds[q] = factors()
						for _, p := range preds[q] {
							g.Add(q, p)
						}
					}
				}
			}
			if c.queries == 5000 && g.gtIdx.chunk == 1 && g.ltIdx.chunk == 1 {
				t.Errorf("5,000 queries: chunks %d/%d, want the budget to space boundaries out",
					g.gtIdx.chunk, g.ltIdx.chunk)
			}
		}
	}
}

// TestKeyOrdersAsCompare pins cmpKey to tuple.Compare over every pair of
// values that includes each kind, NaN, the infinities and both zeros.
func TestKeyOrdersAsCompare(t *testing.T) {
	vals := []tuple.Value{
		tuple.Null, tuple.Float(math.Inf(-1)), tuple.Int(-2), tuple.Float(-0.5),
		tuple.Float(math.Copysign(0, -1)), tuple.Int(0), tuple.Time(0), tuple.Bool(true),
		tuple.Bool(false), tuple.Float(1.5), tuple.Time(7), tuple.Float(math.Inf(1)),
		tuple.Float(math.NaN()), tuple.String_(""), tuple.String_("a"), tuple.String_("b"),
		tuple.Int(1<<53 - 1), tuple.Int(1 << 53), tuple.Int(1<<53 + 1), tuple.Float(1 << 53),
		tuple.Float(1<<53 + 2), tuple.Time(1<<53 + 3), tuple.Int(math.MaxInt64), tuple.Float(0x1p63),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmpKey(keyOf(a, new([8]byte)), keyOf(b, new([8]byte))), tuple.Compare(a, b); got != want {
				t.Errorf("cmpKey(%v, %v) = %d, Compare = %d", a, b, got, want)
			}
		}
	}
}

// TestNaNProbe is the case that found the ordering fault: 200 factors over
// FLOAT bounds 0..49 and a NaN probe. NaN sorts above every number, so
// every ">"/">=" factor holds and every "<"/"<=" factor fails.
func TestNaNProbe(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	preds := map[int][]expr.Predicate{}
	for _, op := range []expr.Op{expr.Gt, expr.Ge, expr.Lt, expr.Le} {
		for c := 0; c < 50; c++ {
			p := expr.Predicate{Col: 0, Op: op, Val: tuple.Float(float64(c))}
			g.Add(len(preds), p)
			preds[len(preds)] = []expr.Predicate{p}
		}
	}
	checkProbe(t, g, preds, tuple.Float(math.NaN()), "nan")
	if n := g.Failing(tuple.Float(math.NaN())).Count(); n != 100 {
		t.Errorf("NaN fails %d factors, want the 100 less-than ones", n)
	}
}

// rangeFilter registers n disjoint ranges "x >= 100q AND x < 100q+100",
// query q of each, as the shared_cqs workload does, and returns the
// filter with its factors.
func rangeFilter(n int) (*GroupedFilter, map[int][]expr.Predicate) {
	g := New(0, tuple.SingleSource(0))
	preds := make(map[int][]expr.Predicate, n)
	for q := 0; q < n; q++ {
		lo := int64(q * 100)
		preds[q] = []expr.Predicate{
			{Col: 0, Op: expr.Ge, Val: tuple.Int(lo)},
			{Col: 0, Op: expr.Lt, Val: tuple.Int(lo + 100)},
		}
		for _, p := range preds[q] {
			g.Add(q, p)
		}
	}
	return g, preds
}

// TestUnionMemory pins the union tables' size. One side of F factors over
// Q queries holds at most max(unionBudget, the ~65-boundary rule's
// (⌈F/coarseChunk(F)⌉+1)·⌈Q/64⌉) words: at 1,000 factors that is a union
// per factor inside the budget; at 100,000 factors over 100,000 queries
// the budget cannot hold the old rule's boundaries, so it keeps them and
// their memory exactly.
func TestUnionMemory(t *testing.T) {
	oldRule := func(n, words int) int { return ((n+coarseChunk(n)-1)/coarseChunk(n) + 1) * words }
	single := func(n int) (*GroupedFilter, map[int][]expr.Predicate) {
		g := New(0, tuple.SingleSource(0))
		preds := make(map[int][]expr.Predicate, n)
		for q := 0; q < n; q++ {
			op := expr.Gt
			if q%2 == 1 {
				op = expr.Lt
			}
			preds[q] = []expr.Predicate{{Col: 0, Op: op, Val: tuple.Int(int64(q))}}
			g.Add(q, preds[q][0])
		}
		return g, preds
	}
	for _, c := range []struct {
		name      string
		build     func() (*GroupedFilter, map[int][]expr.Predicate)
		wantChunk int // 0: any
		wantWords int // per side; 0: any within the bound
	}{
		{"1000 factors, 500 ranges", func() (*GroupedFilter, map[int][]expr.Predicate) { return rangeFilter(500) }, 1, 501 * 8},
		{"2000 factors, 1000 ranges", func() (*GroupedFilter, map[int][]expr.Predicate) { return rangeFilter(1000) }, 1, 1001 * 16},
		{"100000 factors, 50000 ranges", func() (*GroupedFilter, map[int][]expr.Predicate) { return rangeFilter(50000) }, 0, 0},
		{"100000 factors, 100000 queries", func() (*GroupedFilter, map[int][]expr.Predicate) { return single(100000) }, 0, oldRule(50000, 1563)},
	} {
		g, preds := c.build()
		g.rebuild()
		for _, o := range []*ordered{&g.gtIdx, &g.ltIdx} {
			n, got := len(o.keys), len(o.unions)
			if limit := max(unionBudget, oldRule(n, g.words)); got > limit {
				t.Errorf("%s: %d union words for %d factors, over max(budget, old rule) = %d", c.name, got, n, limit)
			}
			if c.wantChunk != 0 && o.chunk != c.wantChunk {
				t.Errorf("%s: chunk %d, want %d", c.name, o.chunk, c.wantChunk)
			}
			if c.wantWords != 0 && got != c.wantWords {
				t.Errorf("%s: %d union words, want %d", c.name, got, c.wantWords)
			}
			if c.wantWords == 0 && got > unionBudget {
				t.Errorf("%s: %d union words, over the %d-word budget", c.name, got, unionBudget)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 8; i++ {
			x := int64(rng.Intn(len(preds) * 100))
			checkProbe(t, g, preds, tuple.Int(x), c.name)
			checkProbe(t, g, preds, tuple.Float(float64(x)+0.5), c.name)
		}
	}
}

func TestModuleInterface(t *testing.T) {
	l := tuple.NewLayout(tuple.NewSchema("S",
		tuple.Column{Name: "x", Kind: tuple.KindInt}))
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(5)})
	m := NewModule("gf", g)
	if m.Name() != "gf" {
		t.Error("name")
	}
	if !m.AppliesTo(tuple.SingleSource(0)) || m.AppliesTo(tuple.SingleSource(1)) {
		t.Error("AppliesTo")
	}
	tp := l.Widen(0, tuple.New(tuple.Int(3)))
	tp.Queries = tuple.NewBitset(1)
	tp.Queries.Set(0)
	if _, passed := m.ProcessBatch(&tuple.Batch{Tuples: []*tuple.Tuple{tp}}); passed != 0 {
		t.Error("tuple failing all queries passed")
	}
}

func TestMixedAddRemoveRebuild(t *testing.T) {
	g := New(0, tuple.SingleSource(0))
	g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(5)})
	_ = g.Failing(tuple.Int(6)) // force rebuild
	g.Add(1, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(7)})
	f := g.Failing(tuple.Int(6))
	if f.Test(0) || !f.Test(1) {
		t.Errorf("failing after incremental add = %v", f)
	}
	g.Remove(1)
	f = g.Failing(tuple.Int(6))
	if f.Test(1) {
		t.Error("failing set contains removed query")
	}
}

// BenchmarkGroupedFilterProbe times Apply on one tuple, lineage reset per
// probe, for one factor, for the 1,000 disjoint ranges of the shared_cqs
// workload and for 100,000 factors (50,000 ranges), over probe values
// spread across the ranges. A probe must not allocate.
func BenchmarkGroupedFilterProbe(b *testing.B) {
	for _, c := range []struct {
		name   string
		ranges int
	}{{"1factor", 0}, {"1000ranges", 1000}, {"100000factors", 50000}} {
		b.Run(c.name, func(b *testing.B) {
			g, nq := New(0, tuple.SingleSource(0)), 1
			if c.ranges == 0 {
				g.Add(0, expr.Predicate{Col: 0, Op: expr.Gt, Val: tuple.Int(50)})
			} else {
				g, _ = rangeFilter(c.ranges)
				nq = c.ranges
			}
			full := tuple.NewBitset(nq)
			full.SetAll(nq)
			rng := rand.New(rand.NewSource(1))
			vals := make([]tuple.Value, 4096)
			for i := range vals {
				vals[i] = tuple.Int(int64(rng.Intn(max(nq*100, 100))))
			}
			tp := tuple.New(tuple.Null)
			tp.Queries = full.Clone()
			g.Apply(tp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp.Vals[0] = vals[i&4095]
				copy(tp.Queries, full)
				g.Apply(tp)
			}
		})
	}
}

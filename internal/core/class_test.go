package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"telegraphcq/internal/tuple"
)

// Pins for "one unwindowed runtime": every unwindowed plan is a CACQ class
// member, whatever its join graph, and the class's modules follow what its
// members select on, not the width of its layout.

// classShapeRows are the inputs of the class-shape pins: S(k, v), R(k, w),
// T(k, w, x) and U(k, y) are streams, P(k, name) a static table loaded
// before registration.
type classShapeRows struct{ s, r, t, u, p []*tuple.Tuple }

func newClassShapeRows() classShapeRows {
	var in classShapeRows
	for i := int64(0); i < 40; i++ {
		in.s = append(in.s, tuple.New(tuple.Int(i%7), tuple.Int(i)))
	}
	for j := int64(0); j < 25; j++ {
		in.r = append(in.r, tuple.New(tuple.Int(j%7), tuple.Int(j*3)))
	}
	for m := int64(0); m < 30; m++ {
		in.t = append(in.t, tuple.New(tuple.Int(m%7), tuple.Int(m%5*15), tuple.Int(m)))
	}
	for n := int64(0); n < 20; n++ {
		in.u = append(in.u, tuple.New(tuple.Int(n%7), tuple.Int(n)))
	}
	for _, k := range []int64{1, 3, 5, 8} {
		in.p = append(in.p, tuple.New(tuple.Int(k), tuple.Int(100+k)))
	}
	return in
}

// classShapes lists one plan per unwindowed shape beyond plain selections
// and single-edge equijoins, with its class key, whether its join set
// hash-partitions at Workers > 1, and its result multiset computed in plain
// Go.
var classShapes = []struct {
	name, query, key string
	partitioned      bool
	want             func(in classShapeRows) []string
}{
	{"3-stream", `SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w`,
		"S+R+T|0=2,3=5", false, func(in classShapeRows) (rows []string) {
			for _, s := range in.s {
				for _, r := range in.r {
					for _, x := range in.t {
						if iv(s, 0) == iv(r, 0) && iv(r, 1) == iv(x, 1) {
							rows = append(rows, row(iv(s, 1), iv(r, 1), iv(x, 2)))
						}
					}
				}
			}
			return rows
		}},
	{"4-stream", `SELECT S.v, R.w, T.x, U.y FROM S, R, T, U WHERE S.k = R.k AND R.w = T.w AND T.k = U.k`,
		"S+R+T+U|0=2,3=5,4=7", false, func(in classShapeRows) (rows []string) {
			for _, s := range in.s {
				for _, r := range in.r {
					for _, x := range in.t {
						for _, u := range in.u {
							if iv(s, 0) == iv(r, 0) && iv(r, 1) == iv(x, 1) && iv(x, 0) == iv(u, 0) {
								rows = append(rows, row(iv(s, 1), iv(r, 1), iv(x, 2), iv(u, 1)))
							}
						}
					}
				}
			}
			return rows
		}},
	{"non-equi", `SELECT S.v, R.w FROM S, R WHERE S.v < R.w`,
		"S+R|1<3", false, func(in classShapeRows) (rows []string) {
			for _, s := range in.s {
				for _, r := range in.r {
					if iv(s, 1) < iv(r, 1) {
						rows = append(rows, row(iv(s, 1), iv(r, 1)))
					}
				}
			}
			return rows
		}},
	{"two-edge", `SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v < R.w`,
		"S+R|0=2,1<3", false, func(in classShapeRows) (rows []string) {
			for _, s := range in.s {
				for _, r := range in.r {
					if iv(s, 0) == iv(r, 0) && iv(s, 1) < iv(r, 1) {
						rows = append(rows, row(iv(s, 1), iv(r, 1)))
					}
				}
			}
			return rows
		}},
	{"self-join", `SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k AND a.v < b.v`,
		"S a+S b|0=2,1<3", false, func(in classShapeRows) (rows []string) {
			for _, a := range in.s {
				for _, b := range in.s {
					if iv(a, 0) == iv(b, 0) && iv(a, 1) < iv(b, 1) {
						rows = append(rows, row(iv(a, 1), iv(b, 1)))
					}
				}
			}
			return rows
		}},
	{"distinct", `SELECT DISTINCT k FROM S WHERE v > 3`,
		"S", true, func(in classShapeRows) (rows []string) {
			seen := map[int64]bool{}
			for _, s := range in.s {
				if iv(s, 1) > 3 && !seen[iv(s, 0)] {
					seen[iv(s, 0)] = true
					rows = append(rows, row(iv(s, 0)))
				}
			}
			return rows
		}},
	{"aggregate", `SELECT COUNT(*), MAX(v) FROM S WHERE v > 3`,
		"S", true, func(in classShapeRows) (rows []string) {
			var n, hi int64
			for _, s := range in.s {
				if iv(s, 1) > 3 {
					n, hi = n+1, max(hi, iv(s, 1))
					rows = append(rows, row(n, hi))
				}
			}
			return rows
		}},
	{"stream-table", `SELECT S.v, P.name FROM S, P WHERE S.k = P.k`,
		"S+P|0=2#q7", true, func(in classShapeRows) (rows []string) {
			for _, s := range in.s {
				for _, p := range in.p {
					if iv(s, 0) == iv(p, 0) {
						rows = append(rows, row(iv(s, 1), iv(p, 1)))
					}
				}
			}
			return rows
		}},
}

func iv(t *tuple.Tuple, col int) int64 { return t.Vals[col].AsInt() }

func row(vals ...int64) string {
	vs := make([]tuple.Value, len(vals))
	for i, v := range vals {
		vs[i] = tuple.Int(v)
	}
	return fmt.Sprint(vs)
}

// newClassShapeEngine creates S, R, T, U and the loaded table P.
func newClassShapeEngine(t *testing.T, opts Options, in classShapeRows) *Engine {
	t.Helper()
	e := NewEngine(opts)
	createSRT(t, e)
	intStream(t, e, "U", "k", "y")
	if err := e.CreateTable("P", tuple.NewSchema("P",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedMany("P", in.p); err != nil {
		t.Fatal(err)
	}
	return e
}

// feedClassShapes feeds every stream's rows, S first.
func feedClassShapes(t *testing.T, e *Engine, in classShapeRows) {
	t.Helper()
	for i, rows := range [][]*tuple.Tuple{in.s, in.r, in.t, in.u} {
		if _, err := e.FeedMany([]string{"S", "R", "T", "U"}[i], rows); err != nil {
			t.Fatal(err)
		}
	}
}

// resultMultiset waits for want results and returns q's sorted rows.
func resultMultiset(t *testing.T, q *RunningQuery, want int) []string {
	t.Helper()
	waitResults(t, q, int64(want))
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res))
	for i, r := range res {
		rows[i] = fmt.Sprint(r.Vals)
	}
	sort.Strings(rows)
	return rows
}

// TestClassShapes: each shape — joins of three and four streams, a non-equi
// join, a two-edge join, a self-join, DISTINCT, an ungrouped aggregate and
// a stream–table join — registers as a class member and produces its
// plain-Go result multiset at Workers 1 and 4 and BatchSize 1 and 64; at
// Workers 4 exactly the shapes whose join set is one equijoin key class run
// partitioned, the rest on the sequential engine.
func TestClassShapes(t *testing.T) {
	in := newClassShapeRows()
	for _, workers := range []int{1, 4} {
		for _, bs := range []int{1, 64} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, bs), func(t *testing.T) {
				e := newClassShapeEngine(t, Options{EOs: 2, Workers: workers, BatchSize: bs}, in)
				defer e.Stop()
				// Query IDs up to the table shape's (7) are the list's indexes.
				qs := make([]*RunningQuery, len(classShapes))
				for i, sh := range classShapes {
					q, err := e.Register(sh.query)
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					if _, ok := q.rt.(sharedMember); !ok || q.label != "shared:"+sh.key {
						t.Fatalf("%s runs on %T as %s, want a member of class %s", sh.name, q.rt, q.label, sh.key)
					}
					if _, sharded := q.ParallelStats(); sharded != (workers > 1 && sh.partitioned) {
						t.Errorf("%s: partitioned=%v at Workers=%d", sh.name, sharded, workers)
					}
					qs[i] = q
				}
				feedClassShapes(t, e, in)
				for i, sh := range classShapes {
					want := sh.want(in)
					sort.Strings(want)
					got := resultMultiset(t, qs[i], len(want))
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("%s: result multiset differs from plain Go:\ngot  %v\nwant %v", sh.name, got, want)
					}
				}
			})
		}
	}
}

// TestIdenticalNWayPlansShareOneClass: two registrations of one three-stream
// plan are two members of one class — one build per FROM position — and
// each sees the full result.
func TestIdenticalNWayPlansShareOneClass(t *testing.T) {
	in := newClassShapeRows()
	e := newClassShapeEngine(t, Options{EOs: 2}, in)
	defer e.Stop()
	sh := classShapes[0]
	a, err := e.Register(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SharedQueryCount(sh.key); n != 2 {
		t.Fatalf("class %s has %d members, want 2", sh.key, n)
	}
	feedClassShapes(t, e, in)
	want := sh.want(in)
	ra, rb := resultMultiset(t, a, len(want)), resultMultiset(t, b, len(want))
	if strings.Join(ra, "\n") != strings.Join(rb, "\n") {
		t.Fatalf("members of one class disagree:\n%v\n%v", ra, rb)
	}
	if got := metricValue(t, e, "tcq_arrangement_count"); got != 3 {
		t.Errorf("tcq_arrangement_count = %v, want 3 (one per FROM position)", got)
	}
}

// TestLateMemberSeesNoEarlierMatches: a member that joins a running class
// gets no match involving rows stored before it registered — their lineage
// lacks its bit — and every match among rows that arrived after.
func TestLateMemberSeesNoEarlierMatches(t *testing.T) {
	e := twoStreamEngine(t, Options{EOs: 1})
	defer e.Stop()
	const join = `SELECT S.v, R.w FROM S, R WHERE S.k = R.k`
	early, err := e.Register(join)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(stream string, n int64) {
		for i := int64(0); i < n; i++ {
			if err := e.Feed(stream, tuple.New(tuple.Int(i%2), tuple.Int(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed("S", 10)
	waitFor(t, "10 S rows built", func() bool {
		st, _ := early.EddyStats()
		return st.Ingested >= 10
	})
	late, err := e.Register(join)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SharedQueryCount("S+R|0=2"); n != 2 {
		t.Fatalf("class has %d members, want 2", n)
	}
	feed("R", 4)
	feed("S", 6)
	// early: 10 + 6 S rows, each matching the 2 R rows of its key.
	waitResults(t, early, 32)
	// late: only the 6 S rows that arrived after it, against the R rows.
	waitResults(t, late, 12)
}

// TestWideLayoutsRegister: a class's module count follows its members'
// selected columns and joined positions, not its layout's width, so a
// selection on a 70-column stream and an equijoin of two 40-column streams
// register and deliver (they needed 70 and 82 modules when every column got
// a grouped filter up front).
func TestWideLayoutsRegister(t *testing.T) {
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	cols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("c%d", i)
		}
		return out
	}
	intStream(t, e, "w", cols(70)...)
	intStream(t, e, "x", cols(40)...)
	intStream(t, e, "y", cols(40)...)
	sel, err := e.Register(`SELECT c0 FROM w WHERE c0 > 5`)
	if err != nil {
		t.Fatal(err)
	}
	join, err := e.Register(`SELECT x.c1, y.c1 FROM x, y WHERE x.c0 = y.c0`)
	if err != nil {
		t.Fatal(err)
	}
	wide := func(n int, k, v int64) *tuple.Tuple {
		vals := make([]tuple.Value, n)
		for i := range vals {
			vals[i] = tuple.Int(v)
		}
		vals[0] = tuple.Int(k)
		return tuple.New(vals...)
	}
	for i := int64(0); i < 10; i++ {
		if err := e.Feed("w", wide(70, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4; i++ {
		if err := e.Feed("x", wide(40, i%2, i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Feed("y", wide(40, i%2, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, sel, 4)
	waitResults(t, join, 8)
}

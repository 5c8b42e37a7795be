package core

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"testing"

	"telegraphcq/internal/tuple"
)

// Differential harness for the columnar runtime: Options.Columnar must be
// purely an execution-strategy choice. The same deterministic S/R equijoin
// feed replayed with the knob on and off must produce, for every
// registered query, identical result multisets (join match order
// legitimately depends on probe interleaving) across BatchSize ∈ {1, 8,
// 32}. This is the repo's standard equivalence-pinning recipe for
// hot-path refactors (see TESTING.md): the row-at-a-time BatchSize=1
// engine is the executable specification, and the refactor is correct
// exactly when the differential diff is empty.

// columnarQueries covers the eligible shapes: bare equijoin, selections
// on either side, multi-predicate conjunctions, identity projection, and
// a self-join (two FROM positions over one stream).
var columnarQueries = []string{
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 10`,
	`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND R.w < 100 AND S.v > 2`,
	`SELECT * FROM S, R WHERE S.k = R.k`,
	`SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k`,
}

// columnarFeed builds deterministic inputs plus per-query expected counts
// evaluated in plain Go, independent of the engine.
func columnarFeed() (sRows, rRows []*tuple.Tuple, want []int) {
	for i := int64(0); i < 40; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%7), tuple.Int(i)))
	}
	for j := int64(0); j < 25; j++ {
		rRows = append(rRows, tuple.New(tuple.Int(j%7), tuple.Int(j*10)))
	}
	want = make([]int, len(columnarQueries))
	for _, s := range sRows {
		for _, r := range rRows {
			if s.Vals[0].AsInt() != r.Vals[0].AsInt() {
				continue
			}
			want[0]++
			if s.Vals[1].AsInt() > 10 {
				want[1]++
			}
			if r.Vals[1].AsInt() < 100 && s.Vals[1].AsInt() > 2 {
				want[2]++
			}
			want[3]++
		}
	}
	for _, a := range sRows {
		for _, b := range sRows {
			if a.Vals[0].AsInt() == b.Vals[0].AsInt() {
				want[4]++
			}
		}
	}
	return sRows, rRows, want
}

// runColumnarWorkload replays the feed through one engine configuration
// and collects every query's sorted result multiset.
func runColumnarWorkload(t *testing.T, columnar bool, bs int) [][]string {
	t.Helper()
	e := NewEngine(Options{EOs: 2, Workers: 1, BatchSize: bs, Columnar: columnar})
	defer e.Stop()
	createSR(t, e)

	var qs []*RunningQuery
	for _, text := range columnarQueries {
		q, err := e.Register(text)
		if err != nil {
			t.Fatal(err)
		}
		if columnar {
			// The knob must actually engage: every workload query is
			// columnar-eligible.
			if _, ok := q.rt.(*colRuntime); !ok {
				t.Fatalf("Columnar on but %q runs on %T", text, q.rt)
			}
		}
		qs = append(qs, q)
	}

	sRows, rRows, want := columnarFeed()
	if err := e.FeedMany("S", sRows); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedMany("R", rRows); err != nil {
		t.Fatal(err)
	}

	var out [][]string
	for i, q := range qs {
		q := q
		waitFor(t, fmt.Sprintf("query %d: %d results", i, want[i]),
			func() bool { return q.Results() >= int64(want[i]) })
		res, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(res))
		for k, r := range res {
			// Match TS/lineage depend on probe arrival order and routing
			// strategy; values are the query's answer.
			rows[k] = fmt.Sprint(r.Vals)
		}
		sort.Strings(rows)
		out = append(out, rows)
	}
	return out
}

// TestColumnarEquivalence diffs the columnar runtime against the
// row-at-a-time BatchSize=1 baseline across batch sizes.
func TestColumnarEquivalence(t *testing.T) {
	base := runColumnarWorkload(t, false, 1)
	_, _, want := columnarFeed()
	for i, rows := range base {
		if len(rows) != want[i] {
			t.Fatalf("baseline query %d: %d rows, want %d", i, len(rows), want[i])
		}
	}
	for _, columnar := range []bool{false, true} {
		for _, bs := range []int{1, 8, 32} {
			if !columnar && bs == 1 {
				continue // the baseline itself
			}
			label := fmt.Sprintf("columnar=%v batch=%d", columnar, bs)
			t.Run(label, func(t *testing.T) {
				got := runColumnarWorkload(t, columnar, bs)
				for i := range base {
					if len(base[i]) != len(got[i]) {
						t.Fatalf("%s: query %d produced %d rows, baseline %d",
							label, i, len(got[i]), len(base[i]))
					}
					for k := range base[i] {
						if base[i][k] != got[i][k] {
							t.Fatalf("%s: query %d multiset diverges at %d: %q vs baseline %q",
								label, i, k, got[i][k], base[i][k])
						}
					}
				}
			})
		}
	}
}

// TestColumnarPushDelivery pins the materializing emit path: with a push
// subscriber attached, columnar results must still arrive row-at-a-time
// on the subscription channel (blocks materialize at the egress
// boundary), and the pull log must serve the same rows.
func TestColumnarPushDelivery(t *testing.T) {
	e := NewEngine(Options{EOs: 2, Workers: 1, BatchSize: 8, Columnar: true})
	defer e.Stop()
	createSR(t, e)
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.rt.(*colRuntime); !ok {
		t.Fatalf("query runs on %T, want *colRuntime", q.rt)
	}
	_, ch := q.Subscribe(256)

	sRows, rRows, want := columnarFeed()
	if err := e.FeedMany("R", rRows); err != nil {
		t.Fatal(err)
	}
	if err := e.FeedMany("S", sRows); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push delivery", func() bool { return q.Results() >= int64(want[0]) })

	got := 0
	for len(ch) > 0 {
		t := <-ch
		if len(t.Vals) != 2 {
			break
		}
		got++
	}
	if got != want[0] {
		t.Fatalf("push subscriber received %d rows, want %d", got, want[0])
	}
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != want[0] {
		t.Fatalf("pull fetch returned %d rows, want %d", len(res), want[0])
	}
}

// steadyStateAllocsPerTuple feeds the S ⋈ R equijoin 8,000 S rows past a
// warm-up and returns the process's heap allocations per fed row, the best
// of three engines (a collection inside the window empties the sync.Pool
// behind the tuple recycler and charges the refill to the steady state).
// Every input is built before the window opens, so the count is the
// engine's own. The warm-up has to reach the recycler's high-water mark:
// FeedMany clones a whole 512-row chunk before pushing and the input queue
// holds 4,096, so about queue+chunk clones are in flight before the first
// recycles come back.
func steadyStateAllocsPerTuple(t *testing.T, columnar bool) float64 {
	t.Helper()
	const keys, rRows, warm, sRows, chunk = 64, 64, 6144, 8000, 512
	rows := func(from, n int64) []*tuple.Tuple {
		in := make([]*tuple.Tuple, 0, n)
		for i := from; i < from+n; i++ {
			in = append(in, tuple.New(tuple.Int(i%keys), tuple.Int(i)))
		}
		return in
	}
	chunks := func(in []*tuple.Tuple) [][]*tuple.Tuple {
		var out [][]*tuple.Tuple
		for ; len(in) > chunk; in = in[chunk:] {
			out = append(out, in[:chunk])
		}
		return append(out, in)
	}
	rIn, warmIn, sIn := rows(0, rRows), chunks(rows(0, warm)), chunks(rows(warm, sRows))

	best := -1.0
	for trial := 0; trial < 3; trial++ {
		e := twoStreamEngine(t, Options{EOs: 2, Workers: 1, BatchSize: 32, Columnar: columnar})
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(stream string, parts ...[]*tuple.Tuple) {
			for _, in := range parts {
				if err := e.FeedMany(stream, in); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One R row per key: every S row joins exactly once.
		feed("R", rIn)
		feed("S", warmIn...)
		waitFor(t, "the warm-up's results", func() bool { return q.Results() >= warm })

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		feed("S", sIn...)
		waitFor(t, "the measured rows' results", func() bool { return q.Results() >= warm+sRows })
		goruntime.ReadMemStats(&after)
		e.Stop()
		if got := q.Results(); got != warm+sRows {
			t.Fatalf("columnar=%v: %d results, want %d", columnar, got, warm+sRows)
		}
		if a := float64(after.Mallocs-before.Mallocs) / sRows; best < 0 || a < best {
			best = a
		}
	}
	return best
}

// TestColumnarSteadyStateAllocs pins what the columnar runtime is for
// (experiment E17): once pools and arenas are warm, the equijoin hot path
// allocates at most one object per fed tuple — it measures 0.04–0.13 here,
// the residue being output-block slabs and index growth amortised over
// hundreds of rows — and fewer than the row runtime on the same feed (4.2).
// The standing alloccheck suppressions on that path (the hash-index append
// in arrange.ColumnStore, the tuple pool's miss slab) are excused by this
// bound.
func TestColumnarSteadyStateAllocs(t *testing.T) {
	rowMode := steadyStateAllocsPerTuple(t, false)
	col := steadyStateAllocsPerTuple(t, true)
	t.Logf("allocs per fed tuple: rows %.2f, columnar %.2f", rowMode, col)
	if col > 1.0 {
		t.Errorf("columnar runtime allocates %.2f objects per fed tuple at steady state, want <= 1.0", col)
	}
	if col >= rowMode {
		t.Errorf("columnar runtime allocates %.2f objects per fed tuple, row runtime %.2f: want fewer", col, rowMode)
	}
}

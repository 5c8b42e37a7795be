package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// paneArrival generates one seeded arrival for obs(ts, sym, n, f): one to
// three rows per timestamp 1..days, their sym drifting upward so groups
// enter and leave a sliding window (and their slots are reused), stragglers
// swapped up to seven rows
// back, and one row in fifty held back forty rows — late for whatever
// instance closed meanwhile.
func paneArrival(rng *rand.Rand, days int64) []*tuple.Tuple {
	var rows []*tuple.Tuple
	for d := int64(1); d <= days; d++ {
		for i := rng.Intn(3); i >= 0; i-- {
			rows = append(rows, tuple.New(tuple.Time(d), tuple.Int(d/8+rng.Int63n(5)),
				tuple.Int(rng.Int63n(2001)-1000), tuple.Float(rng.NormFloat64()*1e3)))
		}
	}
	for i := range rows {
		if j := i + rng.Intn(8); rng.Intn(4) == 0 && j < len(rows) {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	for n := len(rows) / 50; n > 0; n-- {
		i := rng.Intn(len(rows) - 40)
		r := rows[i]
		copy(rows[i:], rows[i+1:i+41])
		rows[i+40] = r
	}
	return rows
}

// rescanReference evaluates q's plan over the arrival the way the rescan
// path does — every admitted row in a window.Buffer, every instance
// ops.Aggregator.Compute over Buffer.Range — under the engine's firing
// rule: preloaded history fires every instance it reaches, and afterwards
// an instance closes at the first arrival beyond its right edge. It
// returns each instance's rows by loop value, and whether the loop ended
// (so the engine's run ends without the quiet timeout).
func rescanReference(q *RunningQuery, arrival []*tuple.Tuple, history int) (map[int64][]*tuple.Tuple, bool) {
	plan := q.Plan
	loop := plan.Loop
	agg := ops.NewAggregator(plan.GroupBy, plan.Aggs...)
	buf := window.NewBuffer(plan.TimeKind)
	out := map[int64][]*tuple.Tuple{}
	t := loop.Init
	right := func() int64 { return loop.Windows[0].Right.At(t) }
	fire := func() {
		out[t] = agg.Compute(buf.Range(loop.Windows[0].Left.At(t), right()))
		t += loop.Step
	}
	maxTime := int64(-1 << 62)
	key := func(i int) int64 {
		if plan.TimeKind == window.Logical {
			return int64(i) + 1
		}
		return arrival[i].Vals[0].AsInt()
	}
	absorb := func(i int) {
		r := arrival[i].Clone()
		r.Seq, r.TS = int64(i)+1, key(i)
		maxTime = max(maxTime, r.TS)
		for _, p := range plan.Selections {
			if !p.Eval(r) {
				return
			}
		}
		buf.Add(r)
	}
	for i := 0; i < history; i++ {
		absorb(i)
	}
	for loop.Cond.Holds(t) && maxTime >= right() {
		fire()
	}
	for i := history; i < len(arrival) && loop.Cond.Holds(t); i++ {
		for loop.Cond.Holds(t) && key(i) > right() {
			fire()
		}
		absorb(i)
	}
	return out, !loop.Cond.Holds(t)
}

// TestSlidingGroupsForgetEvictedKeys: a standing sliding GROUP BY over
// ever-new keys keeps the groups of its window, not every group the stream
// has brought: the pane dictionary frees a key's slot with the last live
// pane holding it, as the rescan's buffer evicted the row.
func TestSlidingGroupsForgetEvictedKeys(t *testing.T) {
	e := NewEngine(Options{EOs: 2})
	defer e.Stop()
	intStream(t, e, "s", "id")
	q, err := e.Register(`SELECT id, COUNT(*) FROM s GROUP BY id
		for (t = 10; ; t++) { WindowIs(s, t - 9, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := q.rt.(*windowRuntime)
	if rt.panes == nil {
		t.Fatal("the sliding GROUP BY is not on the pane path")
	}
	const fed = 2000
	for id := int64(1); id <= fed; id++ {
		if err := e.Feed("s", tuple.New(tuple.Int(id))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every tuple absorbed", func() bool { return rt.absorbed[0].Load() == fed })
	// Quiesce the executor before inspecting runtime internals.
	e.Stop()
	if q.Results() < 10*(fed-20) {
		t.Errorf("%d results from %d instances of ten groups", q.Results(), fed-10)
	}
	if n := rt.panes.Slots(); n > 50 {
		t.Errorf("the group dictionary has %d slots after %d distinct keys through a 10-key window", n, fed)
	}
}

// TestPanesMatchRescan is the pane path's differential test: sliding,
// tumbling, hopping and landmark windows, grouped and not, over physical
// time (tied timestamps, stragglers, late rows) and logical time, preloaded
// history included, at BatchSize 1, 7 and 64. Every instance must hold the
// rescan reference's groups with the same COUNT, integer SUM, MIN and MAX,
// and AVG within 1e-9 relative (panes add in pane order); and the output
// must be the same sequence, bit for bit, at every BatchSize. The engine
// runs on a clock that never moves, so no instance fires on the quiet
// timeout: the arrival order alone decides.
func TestPanesMatchRescan(t *testing.T) {
	shapes := []struct{ name, window string }{
		{"sliding", "for (t = 40; t <= %d; t += 5) { WindowIs(obs, t - 19, t); }"},
		{"tumbling", "for (t = 30; t <= %d; t += 10) { WindowIs(obs, t - 9, t); }"},
		{"hopping", "for (t = 26; t <= %d; t += 15) { WindowIs(obs, t - 5, t); }"},
		{"landmark", "for (t = 34; t <= %d; t += 6) { WindowIs(obs, 23, t); }"},
	}
	selects := []struct {
		name, cols, groupBy string
		avg                 int // the AVG column: equal to rounding only
	}{
		{"grouped", "sym, COUNT(*), SUM(n), AVG(f), MIN(n), MAX(f)", "GROUP BY sym", 3},
		{"ungrouped", "COUNT(*), SUM(n), AVG(f), MIN(n), MAX(f)", "", 2},
	}
	schema := tuple.NewSchema("obs",
		tuple.Column{Name: "ts", Kind: tuple.KindTime},
		tuple.Column{Name: "sym", Kind: tuple.KindInt},
		tuple.Column{Name: "n", Kind: tuple.KindInt},
		tuple.Column{Name: "f", Kind: tuple.KindFloat})
	seed := int64(0)
	for _, timeCol := range []int{0, -1} {
		for _, shape := range shapes {
			for _, sel := range selects {
				seed++
				name := fmt.Sprintf("%s/%s/timecol=%d/seed=%d", shape.name, sel.name, timeCol, seed)
				t.Run(name, func(t *testing.T) {
					arrival := paneArrival(rand.New(rand.NewSource(seed)), 200)
					history := len(arrival) / 4
					until := int64(180) // keys are days 1..200
					if timeCol < 0 {
						until = int64(len(arrival)) - 20 // keys are arrival numbers
					}
					query := fmt.Sprintf("SELECT %s FROM obs WHERE sym <> 3 %s "+shape.window,
						sel.cols, sel.groupBy, until)

					run := func(bs int) (*RunningQuery, []*tuple.Tuple) {
						e := NewEngine(Options{EOs: 2, BatchSize: bs, Clock: chaos.NewVirtual(time.Time{})})
						defer e.Stop()
						if err := e.CreateStream("obs", schema, timeCol); err != nil {
							t.Fatal(err)
						}
						feed := func(rows []*tuple.Tuple) {
							for _, r := range rows {
								if err := e.Feed("obs", tuple.New(r.Vals...)); err != nil {
									t.Fatal(err)
								}
							}
						}
						feed(arrival[:history])
						q, err := e.Register(query)
						if err != nil {
							t.Fatal(err)
						}
						if q.rt.(*windowRuntime).panes == nil {
							t.Fatalf("seed %d: %s is not on the pane path", seed, query)
						}
						feed(arrival[history:])
						q.Wait()
						rows, err := q.Fetch(q.Cursor())
						if err != nil {
							t.Fatal(err)
						}
						return q, rows
					}

					q, base := run(1)
					want, ended := rescanReference(q, arrival, history)
					if !ended {
						t.Fatalf("seed %d: the reference loop did not end; the engine run would wait on the clock", seed)
					}
					got := map[int64][]*tuple.Tuple{}
					for _, r := range base {
						got[r.TS] = append(got[r.TS], r)
					}
					for T, w := range want {
						g := got[T]
						// Panes emit groups in pane order; the rescan in row order.
						sort.Slice(g, func(i, j int) bool { return tuple.Compare(g[i].Vals[0], g[j].Vals[0]) < 0 })
						sort.Slice(w, func(i, j int) bool { return tuple.Compare(w[i].Vals[0], w[j].Vals[0]) < 0 })
						if len(g) != len(w) {
							t.Fatalf("seed %d: instance %d has %d groups, the rescan %d", seed, T, len(g), len(w))
						}
						for i := range w {
							for c, wv := range w[i].Vals {
								gv := g[i].Vals[c]
								if c == sel.avg && gv.K == tuple.KindFloat && wv.K == tuple.KindFloat &&
									math.Abs(gv.F-wv.F) <= 1e-9*math.Max(1, math.Abs(wv.F)) {
									continue
								}
								if gv != wv {
									t.Fatalf("seed %d: instance %d row %v, the rescan %v", seed, T, g[i].Vals, w[i].Vals)
								}
							}
						}
						delete(got, T)
					}
					for T := range got {
						t.Fatalf("seed %d: instance %d emitted, the rescan has no rows for it", seed, T)
					}

					for _, bs := range []int{7, 64} {
						_, rows := run(bs)
						if len(rows) != len(base) {
							t.Fatalf("seed %d: BatchSize %d emitted %d rows, BatchSize 1 %d", seed, bs, len(rows), len(base))
						}
						for i, r := range rows {
							if r.TS != base[i].TS || !slices.Equal(r.Vals, base[i].Vals) {
								t.Fatalf("seed %d: BatchSize %d row %d = %s, BatchSize 1 %s", seed, bs, i, rowKey(r), rowKey(base[i]))
							}
						}
					}
				})
			}
		}
	}
}

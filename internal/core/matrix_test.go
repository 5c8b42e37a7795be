package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/baseline"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/tuple"
)

// The differential matrix: every query shape, at every point of the
// configuration lattice, under a seeded arrival, registered before the
// first row and again after its class has drained, must answer what the
// plain-Go reference in internal/baseline computes from the same arrival.
// Batching, worker shards, execution objects and load shedding change what
// a query costs, never what it answers.
//
// Each shape's semantics are written next to its SQL text, in plain Go
// over the rows baseline.View says a member sees: the registration-point
// contracts live there, once. All shapes run on one engine per lattice
// point. Windowed plans run on a clock that never moves, so no instance
// fires on the quiet timeout: the arrival order alone decides.

// matrixShape is one row of the matrix: a query, its class key (unwindowed)
// or evaluation path (windowed), and its semantics in plain Go.
type matrixShape struct {
	name, sql string
	// key is the class an unwindowed plan joins ("%d" stands for the query
	// ID of a table-reading plan); part whether that class runs on pipeline
	// shards at Workers > 1 (selection classes only: a join class runs
	// sequentially at any Workers).
	key  string
	part bool
	// path is where a windowed plan evaluates: "pane", "rescan", "incjoin".
	path string
	cmp  baseline.Order
	avg  int // the AVG column, equal to 1e-9 relative; -1 when none
	want func(v baseline.View) []baseline.Result
}

func ints(vs ...int64) []tuple.Value {
	out := make([]tuple.Value, len(vs))
	for i, v := range vs {
		out[i] = tuple.Int(v)
	}
	return out
}

func res(ts int64, vals []tuple.Value) baseline.Result { return baseline.Result{TS: ts, Vals: vals} }

// The obs(ts, sym, n, f) and lobs windows: sliding, tumbling, hopping and
// landmark forward loops, as SQL and as baseline loops.
type matrixWindow struct {
	name, sql   string
	init, step  int64
	left, right func(t int64) int64
}

var matrixWindows = []matrixWindow{
	{"sliding", "for (t = 40; t <= %d; t += 5) { WindowIs(%s, t - 19, t); }", 40, 5,
		func(t int64) int64 { return t - 19 }, func(t int64) int64 { return t }},
	{"tumbling", "for (t = 30; t <= %d; t += 10) { WindowIs(%s, t - 9, t); }", 30, 10,
		func(t int64) int64 { return t - 9 }, func(t int64) int64 { return t }},
	{"hopping", "for (t = 26; t <= %d; t += 15) { WindowIs(%s, t - 5, t); }", 26, 15,
		func(t int64) int64 { return t - 5 }, func(t int64) int64 { return t }},
	{"landmark", "for (t = 34; t <= %d; t += 6) { WindowIs(%s, 23, t); }", 34, 6,
		func(int64) int64 { return 23 }, func(t int64) int64 { return t }},
}

// obsDays and lobsRows size the windowed streams; every loop ends 20 short
// of them, so the arrival closes its last instance.
const obsDays, lobsRows = 120, 200

// windowed is a plan over one window of obs (key: the ts column) or lobs
// (key: the arrival number): select ahead of FROM, clauses behind WHERE,
// and rows, which maps an instance's rows (keyed, in arrival order) to its
// result rows.
func windowed(name, path, stream, sel, clauses string, w matrixWindow, avg int,
	rows func(inst []baseline.Row, key func(baseline.Row) int64) [][]tuple.Value) matrixShape {
	until, key := int64(obsDays-20), func(r baseline.Row) int64 { return r.Int(0) }
	if stream == "lobs" {
		until, key = lobsRows-20, func(r baseline.Row) int64 { return r.Seq }
	}
	loop := baseline.Loop{Init: w.init, Step: w.step, Until: until,
		Left: []func(int64) int64{w.left}, Right: []func(int64) int64{w.right}}
	return matrixShape{name: name, path: path, cmp: baseline.Instances, avg: avg,
		sql: fmt.Sprintf("SELECT %s FROM %s WHERE %s ", sel, stream, clauses) + fmt.Sprintf(w.sql, until, stream),
		want: func(v baseline.View) (out []baseline.Result) {
			hist, live := v.Window(stream, key)
			insts, ended := baseline.FireOne(loop, hist, live)
			if !ended {
				panic("a loop over " + stream + " does not end inside the arrival")
			}
			for _, inst := range insts {
				for _, vals := range rows(inst.Rows[0], key) {
					out = append(out, res(inst.T, vals))
				}
			}
			return out
		}}
}

// windowedAgg is a grouped (by sym) or ungrouped aggregate, WHERE sym <> 3,
// on the pane path or, with a LIMIT 8 that keeps an instance's first rows
// in front of the aggregate, on the rescan path.
func windowedAgg(w matrixWindow, stream string, grouped, rescan bool) matrixShape {
	sel, clauses, avg, groupCol := "COUNT(*), SUM(n), AVG(f), MIN(n), MAX(f)", "sym <> 3", 2, -1
	name, path := fmt.Sprintf("%s/%s", stream, w.name), "pane"
	if grouped {
		sel, clauses, avg, groupCol, name = "sym, "+sel, clauses+" GROUP BY sym", 3, 1, name+"/grouped"
	}
	if rescan {
		clauses, path = clauses+" LIMIT 8", "rescan"
	}
	return windowed(name+"/"+path, path, stream, sel, clauses, w, avg,
		func(inst []baseline.Row, key func(baseline.Row) int64) [][]tuple.Value {
			var rows []baseline.Row
			for _, r := range inst {
				if r.Int(1) != 3 {
					rows = append(rows, r)
				}
			}
			if rescan {
				rows = baseline.FirstN(rows, key, 8)
			}
			return baseline.Aggregate(rows, groupCol, baseline.Agg{Fn: "COUNT"},
				baseline.Agg{Fn: "SUM", Col: 2}, baseline.Agg{Fn: "AVG", Col: 3},
				baseline.Agg{Fn: "MIN", Col: 2}, baseline.Agg{Fn: "MAX", Col: 3})
		})
}

// matrixShapes is the table. S(k, v), R(k, w), T(k, w, x) and U(k, y) are
// logical-time streams, P(k, name) a table loaded before any registration;
// obs and lobs carry (ts, sym, n, f) under physical and logical time; WL
// and WR carry (ts, k, v), fed in time order.
var matrixShapes = func() []matrixShape {
	type rows = []baseline.Row
	// join is the nested loop over the rows a member sees of each stream
	// named by a letter of from: it keeps the combinations holds accepts and
	// projects column c of the i-th stream for each {i, c} of cols, or every
	// column for none. A result's TS is its last row's Seq: a selection's
	// input row.
	join := func(from string, holds func(x rows) bool, cols ...[2]int) func(v baseline.View) []baseline.Result {
		return func(v baseline.View) (out []baseline.Result) {
			var loop func(x rows)
			loop = func(x rows) {
				if len(x) < len(from) {
					for _, r := range v.Rows(from[len(x) : len(x)+1]) {
						loop(append(x, r))
					}
					return
				}
				if !holds(x) {
					return
				}
				var vals []tuple.Value
				if len(cols) == 0 {
					for _, r := range x {
						vals = append(vals, r.Vals...)
					}
				}
				for _, c := range cols {
					vals = append(vals, x[c[0]].Vals[c[1]])
				}
				out = append(out, res(x[len(x)-1].Seq, vals))
			}
			loop(nil)
			return out
		}
	}
	eq := func(x rows, a, ca, b, cb int) bool { return x[a].Int(ca) == x[b].Int(cb) }
	// Projections as {stream, column}: S.k, S.v, the second stream's v, T.x, U.y.
	k0, v0, v1, x2, y3 := [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 1}, [2]int{2, 2}, [2]int{3, 1}
	sr := func(x rows) bool { return eq(x, 0, 0, 1, 0) }
	chain := func(x rows) bool { return sr(x) && eq(x, 1, 1, 2, 1) }

	shapes := []matrixShape{
		// Selections, a running aggregate and DISTINCT: one class on S, in
		// order at every worker count through the batch-order merge.
		{name: "select/eq", sql: `SELECT v FROM S WHERE k = 3`, key: "S", part: true, cmp: baseline.Sequence,
			want: join("S", func(x rows) bool { return x[0].Int(0) == 3 }, v0)},
		{name: "select/range", sql: `SELECT k, v FROM S WHERE v > 12 AND v <= 30`, key: "S", part: true, cmp: baseline.Sequence,
			want: join("S", func(x rows) bool { return x[0].Int(1) > 12 && x[0].Int(1) <= 30 }, k0, v0)},
		{name: "select/star", sql: `SELECT * FROM S WHERE k <> 2`, key: "S", part: true, cmp: baseline.Sequence,
			want: join("S", func(x rows) bool { return x[0].Int(0) != 2 })},
		{name: "aggregate", sql: `SELECT COUNT(*), MAX(v) FROM S WHERE v > 3`, key: "S", part: true, cmp: baseline.Sequence,
			want: func(v baseline.View) (out []baseline.Result) {
				var n, hi int64
				for _, s := range v.Rows("S") {
					if s.Int(1) > 3 {
						n, hi = n+1, max(hi, s.Int(1))
						out = append(out, res(s.Seq, ints(n, hi)))
					}
				}
				return out
			}},
		{name: "distinct", sql: `SELECT DISTINCT k FROM S WHERE v > 3`, key: "S", part: true, cmp: baseline.Multiset,
			want: func(v baseline.View) (out []baseline.Result) {
				seen := map[int64]bool{}
				for _, s := range v.Rows("S") {
					if s.Int(1) > 3 && !seen[s.Int(0)] {
						seen[s.Int(0)] = true
						out = append(out, res(0, ints(s.Int(0))))
					}
				}
				return out
			}},

		// Equijoins: four overlapping members of S+R|0=2, a self-join, and
		// three-stream chains and a triangle, which the routing rule plans
		// with the selectivity policy. Every join class runs sequentially.
		{name: "join/bare", sql: `SELECT S.v, R.w FROM S, R WHERE S.k = R.k`, key: "S+R|0=2",
			want: join("SR", sr, v0, v1)},
		{name: "join/sel", sql: `SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 10`, key: "S+R|0=2",
			want: join("SR", func(x rows) bool { return sr(x) && x[0].Int(1) > 10 }, v0, v1)},
		{name: "join/conj", sql: `SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND R.w < 40 AND S.v > 2`, key: "S+R|0=2",
			want: join("SR", func(x rows) bool { return sr(x) && x[1].Int(1) < 40 && x[0].Int(1) > 2 }, v0, v1)},
		{name: "join/star", sql: `SELECT * FROM S, R WHERE S.k = R.k`, key: "S+R|0=2",
			want: join("SR", sr)},
		{name: "join/self", sql: `SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k`, key: "S a+S b|0=2",
			want: join("SS", sr, v0, v1)},
		{name: "join/chain", sql: `SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w`, key: "S+R+T|0=2,3=5",
			want: join("SRT", chain, v0, v1, x2)},
		{name: "join/triangle", sql: `SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w AND T.k = S.k`,
			key: "S+R+T|0=2,3=5,4=0", want: join("SRT", func(x rows) bool { return chain(x) && eq(x, 2, 0, 0, 0) }, v0, v1, x2)},
		{name: "join/chain-sel", sql: `SELECT S.v, T.x FROM S, R, T WHERE S.k = R.k AND R.w = T.w AND R.w < 50`, key: "S+R+T|0=2,3=5",
			want: join("SRT", func(x rows) bool { return chain(x) && x[1].Int(1) < 50 }, v0, x2)},
		{name: "join/one-key", sql: `SELECT S.v, R.w, T.x FROM S, R, T WHERE S.k = R.k AND R.k = T.k`, key: "S+R+T|0=2,2=4",
			want: join("SRT", func(x rows) bool { return sr(x) && eq(x, 1, 0, 2, 0) }, v0, v1, x2)},

		// Class shapes beyond single-edge equijoins.
		{name: "class/4-stream", sql: `SELECT S.v, R.w, T.x, U.y FROM S, R, T, U WHERE S.k = R.k AND R.w = T.w AND T.k = U.k`,
			key: "S+R+T+U|0=2,3=5,4=7", want: join("SRTU", func(x rows) bool { return chain(x) && eq(x, 2, 0, 3, 0) }, v0, v1, x2, y3)},
		{name: "class/non-equi", sql: `SELECT S.v, R.w FROM S, R WHERE S.v < R.w`, key: "S+R|1<3",
			want: join("SR", func(x rows) bool { return x[0].Int(1) < x[1].Int(1) }, v0, v1)},
		{name: "class/two-edge", sql: `SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v < R.w`, key: "S+R|0=2,1<3",
			want: join("SR", func(x rows) bool { return sr(x) && x[0].Int(1) < x[1].Int(1) }, v0, v1)},
		{name: "class/self-lt", sql: `SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k AND a.v < b.v`, key: "S a+S b|0=2,1<3",
			want: join("SS", func(x rows) bool { return sr(x) && x[0].Int(1) < x[1].Int(1) }, v0, v1)},
		{name: "class/stream-table", sql: `SELECT S.v, P.name FROM S, P WHERE S.k = P.k`, key: "S+P|0=2#q%d",
			want: join("SP", sr, v0, v1)},

		// Borrowed lineage: no member of R+S|0=2 filters R, so R's rows carry
		// the class's lineage template while a member filters S. The churn
		// registers and drops copies of the first while rows stream.
		{name: "borrow/bare", sql: churnSQL, key: "R+S|0=2", want: join("RS", sr, v0, v1)},
		{name: "borrow/sel", sql: churnSQL + ` AND S.v > 5`, key: "R+S|0=2",
			want: join("RS", func(x rows) bool { return sr(x) && x[1].Int(1) > 5 }, v0, v1)},
	}
	for i := range shapes {
		if shapes[i].key != "S" {
			shapes[i].cmp = baseline.Multiset // a join's TS follows probe order
		}
	}

	// Windowed aggregates: every window shape grouped and not, on the pane
	// path and the rescan, over physical time with ties, stragglers and late
	// rows; and over logical time, where the late registration preloads
	// history.
	for _, w := range matrixWindows {
		for _, grouped := range []bool{false, true} {
			for _, rescan := range []bool{false, true} {
				shapes = append(shapes, windowedAgg(w, "obs", grouped, rescan))
			}
		}
	}
	for i, w := range matrixWindows {
		shapes = append(shapes, windowedAgg(w, "lobs", i%2 == 0, i == 1 || i == 2))
	}
	// A top-k per tumbling instance; a selection and DISTINCT over the
	// hopping window: the rescan without an aggregate, a set per instance.
	shapes = append(shapes, windowed("obs/tumbling/topk", "rescan", "obs", "n, f", "sym <> 3 ORDER BY f DESC LIMIT 3",
		matrixWindows[1], -1, func(inst []baseline.Row, _ func(baseline.Row) int64) (out [][]tuple.Value) {
			rows := slices.DeleteFunc(slices.Clone(inst), func(r baseline.Row) bool { return r.Int(1) == 3 })
			slices.SortFunc(rows, func(a, b baseline.Row) int { return tuple.Compare(b.Vals[3], a.Vals[3]) })
			for _, r := range rows[:min(3, len(rows))] {
				out = append(out, r.Vals[2:4])
			}
			return out
		}))
	hop := matrixWindows[2]
	shapes = append(shapes, windowed("obs/hopping/select", "rescan", "obs", "n", "sym <> 3", hop, -1,
		func(inst []baseline.Row, _ func(baseline.Row) int64) (out [][]tuple.Value) {
			for _, r := range inst {
				if r.Int(1) != 3 {
					out = append(out, r.Vals[2:3])
				}
			}
			return out
		}),
		windowed("obs/hopping/distinct", "rescan", "obs", "DISTINCT sym", "n > 0", hop, -1,
			func(inst []baseline.Row, _ func(baseline.Row) int64) (out [][]tuple.Value) {
				seen := map[int64]bool{}
				for _, r := range inst {
					if r.Int(2) > 0 && !seen[r.Int(1)] {
						seen[r.Int(1)] = true
						out = append(out, r.Vals[1:2])
					}
				}
				return out
			}))

	// The incremental windowed join, two streams fed in time order.
	joinLoop := baseline.Loop{Init: 4, Step: 3, Until: 20,
		Left:  []func(int64) int64{func(t int64) int64 { return t - 3 }, func(t int64) int64 { return t - 5 }},
		Right: []func(int64) int64{func(t int64) int64 { return t }, func(t int64) int64 { return t }}}
	return append(shapes, matrixShape{name: "window/join",
		sql: `SELECT WL.v, WR.v FROM WL, WR WHERE WL.k = WR.k AND WL.v > 2
			for (t = 4; t <= 20; t += 3) { WindowIs(WL, t - 3, t); WindowIs(WR, t - 5, t); }`,
		path: "incjoin", cmp: baseline.Instances, avg: -1,
		want: func(v baseline.View) (out []baseline.Result) {
			ts := func(r baseline.Row) int64 { return r.Int(0) }
			lh, ll := v.Window("WL", ts)
			rh, rl := v.Window("WR", ts)
			insts, ended := baseline.FireInOrder(joinLoop, [][]baseline.Keyed{lh, rh}, [][]baseline.Keyed{ll, rl})
			if !ended {
				panic("the windowed join's loop does not end inside the arrival")
			}
			for _, inst := range insts {
				for _, l := range inst.Rows[0] {
					for _, r := range inst.Rows[1] {
						if l.Int(1) == r.Int(1) && l.Int(2) > 2 {
							out = append(out, res(inst.T, ints(l.Int(2), r.Int(2))))
						}
					}
				}
			}
			return out
		}})
}()

const churnSQL = `SELECT R.w, S.v FROM R, S WHERE R.k = S.k`

// matrixInput is one seeded arrival and the table loaded before it.
type matrixInput struct {
	arrival baseline.Arrival
	tables  map[string][][]tuple.Value
}

// matrixArrival generates the arrival for one seed: each stream's rows,
// cut into FeedMany runs of one to eight rows and interleaved across
// streams at random. obs brings one to three rows per day, swapped up to
// seven rows back, and one row in fifty held back forty rows (late for
// whatever instance closed meanwhile); its sym drifts upward so groups
// leave sliding windows. lobs reuses obs's generator under logical time;
// WL and WR bring two rows per time unit, in time order.
func matrixArrival(seed int64) matrixInput {
	rng := rand.New(rand.NewSource(seed))
	rows := map[string][][]tuple.Value{}
	for i := int64(0); i < 40; i++ {
		rows["S"] = append(rows["S"], ints(rng.Int63n(7), i))
	}
	for j := int64(0); j < 25; j++ {
		rows["R"] = append(rows["R"], ints(rng.Int63n(7), 3*j))
	}
	for m := int64(0); m < 30; m++ {
		rows["T"] = append(rows["T"], ints(rng.Int63n(7), 15*rng.Int63n(5), m))
	}
	for n := int64(0); n < 20; n++ {
		rows["U"] = append(rows["U"], ints(rng.Int63n(7), n))
	}
	obs := func(d int64) []tuple.Value {
		return []tuple.Value{tuple.Time(d), tuple.Int(d/8 + rng.Int63n(5)),
			tuple.Int(rng.Int63n(2001) - 1000), tuple.Float(rng.NormFloat64() * 1e3)}
	}
	for d := int64(1); d <= obsDays; d++ {
		for i := rng.Intn(3); i >= 0; i-- {
			rows["obs"] = append(rows["obs"], obs(d))
		}
	}
	o := rows["obs"]
	for i := range o {
		if j := i + rng.Intn(8); rng.Intn(4) == 0 && j < len(o) {
			o[i], o[j] = o[j], o[i]
		}
	}
	for n := len(o) / 50; n > 0; n-- {
		i := rng.Intn(len(o) - 40)
		r := o[i]
		copy(o[i:], o[i+1:i+41])
		o[i+40] = r
	}
	for i := int64(1); i <= lobsRows; i++ {
		rows["lobs"] = append(rows["lobs"], obs(i/2))
	}
	for ts := int64(1); ts <= 25; ts++ {
		for n := 0; n < 2; n++ {
			for _, s := range []string{"WL", "WR"} {
				rows[s] = append(rows[s], []tuple.Value{tuple.Time(ts), tuple.Int(rng.Int63n(4)), tuple.Int(rng.Int63n(10))})
			}
		}
	}

	// Each run's stream is drawn in proportion to the rows it has left, so
	// every stream spreads over the whole arrival.
	var in matrixInput
	names := []string{"S", "R", "T", "U", "obs", "lobs", "WL", "WR"}
	for {
		left := 0
		for _, s := range names {
			left += len(rows[s])
		}
		if left == 0 {
			break
		}
		pick := rng.Intn(left)
		for _, s := range names {
			if pick -= len(rows[s]); pick < 0 {
				n := min(1+rng.Intn(8), len(rows[s]))
				in.arrival = append(in.arrival, baseline.Run{Stream: s, Rows: rows[s][:n]})
				rows[s] = rows[s][n:]
				break
			}
		}
	}
	in.tables = map[string][][]tuple.Value{"P": {ints(1, 101), ints(3, 103), ints(5, 105), ints(8, 108)}}
	return in
}

// matrixCell is one point of the configuration lattice. A traced cell's
// engine follows half its tuples (TraceSampleRate 0.5), each of which the
// eddy routes as a batch of one.
type matrixCell struct {
	workers, batch, eos int
	shed, traced        bool
}

func (c matrixCell) String() string {
	s := fmt.Sprintf("workers=%d,batch=%d,eos=%d,shed=%v", c.workers, c.batch, c.eos, c.shed)
	if c.traced {
		s += ",traced"
	}
	return s
}

// grid is every (workers, batch) pair at two EOs without shedding.
func grid(workers, batches []int) (out []matrixCell) {
	for _, w := range workers {
		for _, b := range batches {
			out = append(out, matrixCell{w, b, 2, false, false})
		}
	}
	return out
}

// matrixSeeds are the arrival seeds: CHAOS_SEED (default 1) and the next.
func matrixSeeds(t testing.TB) []int64 {
	base := int64(1)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		var err error
		if base, err = strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("bad CHAOS_SEED=%q", v)
		}
	}
	return []int64{base, base + 1}
}

// shapesNamed returns the matrix's shapes whose names start with a prefix.
func shapesNamed(prefixes ...string) (out []matrixShape) {
	for _, sh := range matrixShapes {
		for _, p := range prefixes {
			if strings.HasPrefix(sh.name, p) {
				out = append(out, sh)
				break
			}
		}
	}
	return out
}

// matrixPolicy replaces the routing rule's policy on the class eddies of
// plans joining three or more streams: name and nway are what their
// telemetry must then report.
type matrixPolicy struct {
	name    string
	nway    bool
	install func(*eddy.Eddy)
}

// TestDifferentialMatrix runs every shape at every lattice point for two
// arrival seeds, registered before the first row and again once its class
// has drained. Per cell it also checks each plan's class, routing rule,
// shards or window path; that shedding shed nothing (no feed reaches
// QueueCap); that churned members saw a duplicate-free subset of the true
// matches and nothing after they left; and that windowed output is bit for
// bit the same at every lattice point.
func TestDifferentialMatrix(t *testing.T) {
	var cells []matrixCell
	for _, c := range grid([]int{1, 2, 4}, []int{1, 7, 64}) {
		for _, eos := range []int{1, 2, 4} {
			for _, shed := range []bool{false, true} {
				cells = append(cells, matrixCell{c.workers, c.batch, eos, shed, false})
			}
		}
	}
	cells = append(cells, matrixCell{1, 7, 2, false, true}, matrixCell{1, 64, 2, false, true})
	seeds := matrixSeeds(t)
	for _, seed := range seeds {
		m := newMatrixRun(matrixShapes, seed, nil)
		for _, c := range cells {
			name := fmt.Sprintf("seed=%d,%s", seed, c)
			ok := t.Run(name, func(t *testing.T) {
				m.cell(t, c, fmt.Sprintf("CHAOS_SEED=%d go test -run 'TestDifferentialMatrix/^%s$' ./internal/core/", seeds[0], name))
			})
			if !ok {
				// A fault that loses rows fails every cell; the first failure,
				// with its repro line, is the report.
				t.Fatalf("stopped after %s failed", name)
			}
		}
	}
}

// matrixSlice is a slice of the matrix: some shapes at some lattice points,
// for the matrix's seeds or its own, each shape on an engine of its own
// when solo. The focused gates below are slices.
type matrixSlice struct {
	shapes []matrixShape
	cells  []matrixCell
	seeds  []int64
	solo   bool
	policy *matrixPolicy
}

func (s matrixSlice) run(t *testing.T) {
	sets := [][]matrixShape{s.shapes}
	if s.solo {
		sets = nil
		for _, sh := range s.shapes {
			sets = append(sets, []matrixShape{sh})
		}
	}
	seeds, repro := s.seeds, fmt.Sprintf("go test -run '^%s$' ./internal/core/", t.Name())
	if seeds == nil {
		seeds = matrixSeeds(t)
		repro = fmt.Sprintf("CHAOS_SEED=%d %s", seeds[0], repro)
	}
	for _, seed := range seeds {
		for _, set := range sets {
			m := newMatrixRun(set, seed, s.policy)
			for _, c := range s.cells {
				m.cell(t, c, repro)
			}
		}
	}
}

// Focused gates: each runs the slice of the matrix that pins one
// subsystem, so a change to it is checked in a second; the whole matrix is
// the gate for everything. sole is one sequential lattice point.
var sole = []matrixCell{{1, 1, 1, false, false}}

func gate(t *testing.T, cells []matrixCell, prefixes ...string) {
	matrixSlice{shapes: shapesNamed(prefixes...), cells: cells}.run(t)
}

func TestLateMemberSeesNoEarlierMatches(t *testing.T)  { gate(t, sole, "join/bare") }
func TestIdenticalNWayPlansShareOneClass(t *testing.T) { gate(t, sole, "join/chain") }
func TestParallelRuntimeSelection(t *testing.T) {
	gate(t, grid([]int{1, 2}, []int{8}), "aggregate", "join/chain", "join/one-key")
}
func TestUnwindowedSelectionCQ(t *testing.T)              { gate(t, sole, "select/") }
func TestPushAndPullAgree(t *testing.T)                   { gate(t, sole, "select/", "join/bare") }
func TestSharedClassServesQualifyingQueries(t *testing.T) { gate(t, sole, "select/") }
func TestDeregisterStopsDelivery(t *testing.T)            { gate(t, sole, "select/") }
func TestEddyStatsAccessors(t *testing.T) {
	gate(t, sole, "select/eq", "aggregate", "obs/hopping/select")
}
func TestTopKPerWindowInstance(t *testing.T)        { gate(t, sole, "obs/tumbling/topk") }
func TestUnwindowedJoinCQ(t *testing.T)             { gate(t, sole, "join/bare") }
func TestThreeWayJoinCQ(t *testing.T)               { gate(t, sole, "join/chain") }
func TestUnwindowedRunningMax(t *testing.T)         { gate(t, sole, "aggregate") }
func TestAggregateJoinsSelectionClass(t *testing.T) { gate(t, sole, "aggregate", "select/") }
func TestDistinctUnwindowed(t *testing.T)           { gate(t, sole, "distinct") }
func TestDistinctWindowed(t *testing.T)             { gate(t, sole, "obs/hopping/distinct") }
func TestHoppingWindowSkipsData(t *testing.T)       { gate(t, sole, "obs/hopping/select") }
func TestGroupedAggregateWindowed(t *testing.T)     { gate(t, sole, "obs/landmark/grouped") }
func TestIncrementalJoinMatchesBruteForce(t *testing.T) {
	gate(t, grid([]int{1}, []int{1, 7, 64}), "window/join")
}
func TestBatchEquivalenceJoinMultiset(t *testing.T) {
	gate(t, grid([]int{1, 4}, []int{1, 8, 32}), "join/")
}

// Batching, then worker shards, keep ordered outputs in order.
func TestBatchEquivalenceOrderedPlans(t *testing.T) {
	for _, g := range [][2]string{{"SharedSelection", "select/"}, {"EddyDistinct", "distinct"}, {"SlidingAvg", "obs/sliding/pane"}} {
		t.Run(g[0], func(t *testing.T) { gate(t, grid([]int{1}, []int{1, 8, 64}), g[1]) })
	}
}
func TestParallelRunningMaxMatchesSequential(t *testing.T) {
	gate(t, grid([]int{1, 2, 4}, []int{8}), "aggregate")
}
func TestParallelDistinctUnwindowed(t *testing.T)  { gate(t, grid([]int{3}, []int{8}), "distinct") }
func TestParallelSharedClassDelivery(t *testing.T) { gate(t, grid([]int{2}, []int{8}), "select/") }

// The borrowing class R+S|0=2, copies of its first member churning through
// it while rows stream.
func TestBorrowedLineageKeepsMembersExact(t *testing.T) {
	gate(t, []matrixCell{{1, 8, 1, false, false}}, "borrow/")
}
func TestArrangeChurnSequential(t *testing.T) {
	gate(t, []matrixCell{{1, 16, 2, true, false}}, "borrow/")
}
func TestArrangeChurnParallel(t *testing.T) {
	gate(t, []matrixCell{{4, 16, 2, true, false}}, "borrow/")
}

// A selection class beside the S⋈R members, the members sharing one class
// or each alone in an engine of its own.
func TestArrangeEquivalence(t *testing.T) {
	shapes := shapesNamed("select/", "join/bare", "join/sel", "join/conj", "join/star")
	for _, shared := range []bool{false, true} {
		for _, c := range grid([]int{1, 4}, []int{1, 32}) {
			t.Run(fmt.Sprintf("shared=%v workers=%d batch=%d", shared, c.workers, c.batch),
				matrixSlice{shapes: shapes, cells: []matrixCell{c}, solo: !shared}.run)
		}
	}
}

// The class shapes beyond single-edge equijoins.
func TestClassShapes(t *testing.T) {
	for _, c := range grid([]int{1, 4}, []int{1, 64}) {
		t.Run(fmt.Sprintf("workers=%d/batch=%d", c.workers, c.batch),
			func(t *testing.T) { gate(t, []matrixCell{c}, "class/", "distinct", "aggregate", "join/chain") })
	}
}

// Every routing policy, probe orders planned or routed per hop, answers the
// same on the three- and four-stream joins; two streams route per hop.
func TestNWayRoutingEquivalence(t *testing.T) {
	install := func(p eddy.Policy, reuse int) func(*eddy.Eddy) {
		return func(ed *eddy.Eddy) { ed.SetPolicy(p); ed.SetNWay(reuse) }
	}
	nway := shapesNamed("join/chain", "join/triangle", "join/one-key", "class/4-stream")
	cells := []matrixCell{{1, 1, 1, false, false}, {1, 8, 2, false, false}}
	for _, g := range []struct {
		name   string
		policy *matrixPolicy
	}{
		{"selectivity-nway", nil},
		{"lottery-nway", &matrixPolicy{"lottery", true, install(eddy.NewLotteryPolicy(1), planReuse)}},
		{"fixed-order", &matrixPolicy{"fixed", true, install(eddy.NewFixedPolicy(2, 1, 0), planReuse)}},
		{"legacy", &matrixPolicy{"lottery", false, install(eddy.NewLotteryPolicy(1), 0)}},
		{"naive-no-nway", &matrixPolicy{"fixed", false, install(nil, 0)}},
	} {
		t.Run(g.name, matrixSlice{shapes: nway, cells: cells, policy: g.policy}.run)
	}
	t.Run("two-stream", func(t *testing.T) { gate(t, cells, "join/bare") })
}

// Each window shape, grouped and not, over physical and logical time, on
// the pane path and the rescan, for sixteen arrivals.
func TestPanesMatchRescan(t *testing.T) {
	seed := int64(0)
	for _, stream := range []string{"obs", "lobs"} {
		for _, w := range matrixWindows {
			for _, grouped := range []bool{true, false} {
				seed++
				name := fmt.Sprintf("%s/%s/timecol=%d/seed=%d", w.name, map[bool]string{true: "grouped", false: "ungrouped"}[grouped],
					map[string]int{"obs": 0, "lobs": -1}[stream], seed)
				t.Run(name, matrixSlice{shapes: []matrixShape{windowedAgg(w, stream, grouped, false), windowedAgg(w, stream, grouped, true)},
					cells: grid([]int{1}, []int{1, 7, 64}), seeds: []int64{seed}}.run)
			}
		}
	}
}

// matrixRun is a set of shapes over one seeded arrival, with the
// reference's answers at both registration points: before the first row,
// and once every class has drained the arrival's first half.
type matrixRun struct {
	shapes   []matrixShape
	seed     int64
	in       matrixInput
	at       int
	want     [2][][]baseline.Result
	churn    []matrixShape     // shapes whose copies come and go
	churnAll []map[string]bool // each one's results over the whole arrival
	policy   *matrixPolicy
	windowed sync.Map // shape/registration -> the first cell's output
	sRows    int64    // rows of S in the arrival
}

// matrixWants caches the reference's answers by shape, seed and
// registration point: the gates share them.
var matrixWants sync.Map

func newMatrixRun(shapes []matrixShape, seed int64, policy *matrixPolicy) *matrixRun {
	m := &matrixRun{shapes: shapes, seed: seed, in: matrixArrival(seed), policy: policy}
	m.at = len(m.in.arrival) / 2
	m.sRows = int64(len(baseline.View{Arrival: m.in.arrival}.Rows("S")))
	for i, point := range []int{0, m.at} {
		v := baseline.View{Arrival: m.in.arrival, At: point, Tables: m.in.tables}
		for _, sh := range shapes {
			key := fmt.Sprintf("%s/%d/%d", sh.name, seed, point)
			want, ok := matrixWants.Load(key)
			if !ok {
				want, _ = matrixWants.LoadOrStore(key, baseline.Canonical(sh.cmp, sh.want(v)))
			}
			m.want[i] = append(m.want[i], want.([]baseline.Result))
		}
	}
	// The churn: a borrowing join with the set's members of its class, and
	// a selection with the set's first.
	if slices.ContainsFunc(shapes, func(sh matrixShape) bool { return sh.key == "R+S|0=2" }) {
		m.churn = shapesNamed("borrow/bare")
	}
	if i := slices.IndexFunc(shapes, func(sh matrixShape) bool { return strings.HasPrefix(sh.name, "select/") }); i >= 0 {
		m.churn = append(m.churn, shapes[i])
	}
	for _, sh := range m.churn {
		all := map[string]bool{}
		for _, r := range sh.want(baseline.View{Arrival: m.in.arrival}) {
			all[fmt.Sprint(r.Vals)] = true
		}
		m.churnAll = append(m.churnAll, all)
	}
	return m
}

// cell runs the set on one engine at one lattice point.
func (m *matrixRun) cell(t *testing.T, c matrixCell, repro string) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, %s: %s\nrepro: %s", m.seed, c, fmt.Sprintf(format, args...), repro)
	}
	opts := Options{EOs: c.eos, Workers: c.workers, BatchSize: c.batch, Shed: c.shed,
		Clock: chaos.NewVirtual(time.Time{})}
	if c.traced {
		opts.TraceSampleRate = 0.5
	}
	e := NewEngine(opts)
	defer e.Stop()
	createSRT(t, e)
	intStream(t, e, "U", "k", "y")
	if err := e.CreateTable("P", tuple.NewSchema("P",
		tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "name", Kind: tuple.KindInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedMany("P", rowsOf(m.in.tables["P"])); err != nil {
		t.Fatal(err)
	}
	obs := []tuple.Column{{Name: "ts", Kind: tuple.KindTime}, {Name: "sym", Kind: tuple.KindInt},
		{Name: "n", Kind: tuple.KindInt}, {Name: "f", Kind: tuple.KindFloat}}
	kv := []tuple.Column{{Name: "ts", Kind: tuple.KindTime}, {Name: "k", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}}
	for _, s := range []struct {
		name    string
		cols    []tuple.Column
		timeCol int
	}{{"obs", obs, 0}, {"lobs", obs, -1}, {"WL", kv, 0}, {"WR", kv, 0}} {
		if err := e.CreateStream(s.name, tuple.NewSchema(s.name, s.cols...), s.timeCol); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(runs baseline.Arrival) {
		for _, run := range runs {
			if _, err := e.FeedMany(run.Stream, rowsOf(run.Rows)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Late unwindowed members also push their results, to a buffer the
	// reference's answer fits (a windowed one fires its preloaded instances
	// before a client can subscribe); early ones only keep them.
	pushed := make([]<-chan *tuple.Tuple, len(m.shapes))
	register := func(point int) []*RunningQuery {
		qs := make([]*RunningQuery, len(m.shapes))
		for i, sh := range m.shapes {
			q, err := e.Register(sh.sql)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			checkPlacement(t, c, sh, q)
			if m.policy != nil && sh.path == "" && len(joinStreams(q.Plan)) >= 3 {
				onEddy(t, q, m.policy.install)
			}
			if point == 1 && sh.path == "" {
				_, pushed[i] = q.Subscribe(len(m.want[1][i]) + 1)
			}
			qs[i] = q
		}
		return qs
	}

	// Before the first row; then copies of the churned shapes register
	// between the first half's runs, every other one leaving at once, so
	// freed lineage slots come back to the members registered below.
	early := register(0)
	type copyOf struct {
		q     *RunningQuery
		shape int
	}
	var churned []copyOf
	for i := range m.in.arrival[:m.at] {
		for j := 0; i%4 == 0 && j < len(m.churn); j++ {
			q, err := e.Register(m.churn[j].sql)
			if err == nil && i%8 == 0 {
				err = e.Deregister(q.ID)
			} else if err == nil {
				churned = append(churned, copyOf{q, j})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		feed(m.in.arrival[i : i+1])
	}
	left := map[*RunningQuery]int64{} // a deregistered member's final count
	// Newest first: slots are reused last-freed first, so the late members
	// below get the slots of the members that saw the most rows.
	slices.Reverse(churned)
	for _, cp := range churned {
		q, seen := cp.q, map[string]bool{}
		for _, r := range fetchRows(t, q) {
			k := fmt.Sprint(r.Vals)
			if seen[k] || !m.churnAll[cp.shape][k] {
				fail("churned member %d: result %v is a duplicate or no result of its plan at all", q.ID, r.Vals)
			}
			seen[k] = true
		}
		if err := e.Deregister(q.ID); err != nil {
			t.Fatal(err)
		}
		if e.Deregister(q.ID) == nil || slices.Contains(e.Queries(), q.ID) {
			fail("churned member %d still registered once it left", q.ID)
		}
		left[q] = q.Results()
	}
	members := map[string]int{}
	for _, sh := range m.shapes {
		members[sh.key]++
	}
	for _, sh := range m.churn {
		if n := e.SharedQueryCount(sh.key); n != members[sh.key] {
			fail("%s has %d members once the churn left, want %d", sh.key, n, members[sh.key])
		}
	}

	// Once every class has drained its input, the second registration.
	drainClasses(t, e)
	late := register(1)
	feed(m.in.arrival[m.at:])

	for point, qs := range [][]*RunningQuery{early, late} {
		for i, sh := range m.shapes {
			got := awaitShape(t, sh, qs[i], len(m.want[point][i]))
			label := fmt.Sprintf("%s registered %s", sh.name, []string{"before the first row", "after its class drained"}[point])
			if d := baseline.Diff(sh.cmp, sh.avg, got, m.want[point][i]); d != "" {
				fail("%s: %s", label, d)
			}
			if pushed[i] != nil && point == 1 {
				// The push reader follows the result log, so its rows may
				// trail the fetched ones by a moment.
				var rows []baseline.Result
				timeout := chaos.Real().After(5 * time.Second)
			read:
				for len(rows) < len(got) {
					select {
					case r := <-pushed[i]:
						rows = append(rows, baseline.Result{TS: r.TS, Vals: r.Vals})
					case <-timeout:
						break read
					}
				}
				if d := baseline.Diff(sh.cmp, sh.avg, baseline.Canonical(sh.cmp, rows), got); d != "" {
					fail("%s: pushed %s", label, d)
				}
			}
			if sh.cmp == baseline.Instances {
				first, _ := m.windowed.LoadOrStore(fmt.Sprintf("%s/%d", sh.name, point), got)
				if d := baseline.Diff(baseline.Instances, -1, got, first.([]baseline.Result)); d != "" {
					fail("%s: output differs bit for bit from another lattice point's: %s", label, d)
				}
			}
			if drops := qs[i].InputDrops(); drops != 0 {
				fail("%s: %d input rows shed below QueueCap", label, drops)
			}
		}
	}
	for i, q := range early {
		if m.shapes[i].path != "" {
			continue
		}
		checkRouting(t, q, m.policy, fail)
		// A class takes each row in once, however many members it serves.
		if m.shapes[i].key == "S" {
			waitFor(t, "class S to take in every row", func() bool { st, _ := q.EddyStats(); return st.Ingested >= m.sRows })
			if st, _ := q.EddyStats(); st.Ingested != m.sRows {
				fail("class S ingested %d rows, want %d", st.Ingested, m.sRows)
			}
		}
	}
	// A join class builds once per FROM position, however many members it
	// serves.
	builds := map[string]int{}
	for _, qs := range [][]*RunningQuery{early, late} {
		for i, q := range qs {
			if key := strings.TrimPrefix(q.label, "shared:"); m.shapes[i].path == "" && key != "S" {
				builds[key] = strings.Count(key[:strings.Index(key+"|", "|")], "+") + 1
			}
		}
	}
	want := 0
	for _, n := range builds {
		want += n
	}
	if got := metricValue(t, e, "tcq_arrangement_count"); got != float64(want) {
		fail("tcq_arrangement_count = %v, want %d", got, want)
	}
	for q, n := range left {
		if q.Results() != n {
			fail("churned member %d got %d results after it left", q.ID, q.Results()-n)
		}
	}
	for _, s := range e.Metrics().Snapshot() {
		if strings.HasPrefix(s.Name, "tcq_ingress_shed_total") && s.Value != 0 {
			fail("%s = %v, want 0: every feed is below QueueCap", s.Name, s.Value)
		}
	}
	// A loop leaves its streams when it fires its last instance: no row
	// enters its input queues after that, and a row fed once it has
	// reported Finished is cloned for it not at all, taken in or turned
	// away.
	clones := func(q *RunningQuery) (queued, refused int64) {
		for _, c := range q.inputs {
			n, _ := c.Q.Stats()
			queued += n
			refused += c.Q.Refused()
		}
		return queued, refused
	}
	type loopClones struct{ queued, refused int64 }
	loops := map[*RunningQuery]loopClones{}
	for _, qs := range [][]*RunningQuery{early, late} {
		for i, q := range qs {
			if m.shapes[i].path == "" {
				continue
			}
			queued, refused := clones(q)
			if end := q.rt.(*windowRuntime).queuedAtEnd; queued != end {
				fail("%s: %d rows entered query %d's inputs after its last instance", m.shapes[i].name, queued-end, q.ID)
			}
			loops[q] = loopClones{queued, refused}
		}
	}
	lastRun := map[string]baseline.Run{}
	for _, run := range m.in.arrival {
		lastRun[run.Stream] = run
	}
	for _, run := range lastRun {
		feed(baseline.Arrival{run})
	}
	for q, was := range loops {
		if queued, refused := clones(q); queued != was.queued || refused != was.refused {
			fail("query %d: %d rows cloned for its loop once it had finished", q.ID, queued+refused-was.queued-was.refused)
		}
	}
}

// rowsOf builds fresh tuples of rows for one FeedMany.
func rowsOf(rows [][]tuple.Value) []*tuple.Tuple {
	out := make([]*tuple.Tuple, len(rows))
	for i, vals := range rows {
		out[i] = tuple.New(append([]tuple.Value(nil), vals...)...)
	}
	return out
}

// createSRT creates S(k, v), R(k, w) and T(k, w, x).
func createSRT(t testing.TB, e *Engine) {
	t.Helper()
	createSR(t, e)
	intStream(t, e, "T", "k", "w", "x")
}

// checkPlacement checks where a plan runs: an unwindowed plan in its class,
// on pipeline shards at Workers > 1 when the class is a selection class
// (part) and on one sequential engine otherwise, so no join class reports
// ParallelStats; a windowed one on its path.
func checkPlacement(t *testing.T, c matrixCell, sh matrixShape, q *RunningQuery) {
	t.Helper()
	if sh.path != "" {
		rt, ok := q.rt.(*windowRuntime)
		path := "rescan"
		if ok && rt.panes != nil {
			path = "pane"
		} else if ok && rt.incJoin != nil {
			path = "incjoin"
		}
		if _, hasEddy := q.EddyStats(); !ok || path != sh.path || hasEddy {
			t.Fatalf("%s runs on %T, path %s, eddy %v; want the %s path", sh.name, q.rt, path, hasEddy, sh.path)
		}
		return
	}
	key := strings.Replace(sh.key, "%d", strconv.Itoa(q.ID), 1)
	_, hasEddy := q.EddyStats()
	if _, ok := q.rt.(sharedMember); !ok || !hasEddy || q.label != "shared:"+key {
		t.Fatalf("%s runs on %T as %s, eddy %v; want a member of class %s", sh.name, q.rt, q.label, hasEddy, key)
	}
	ps, sharded := q.ParallelStats()
	if want := c.workers > 1 && sh.part; sharded != want || want && ps.Workers != c.workers {
		t.Fatalf("%s: on pipeline shards=%v (%d of them) at Workers=%d", sh.name, sharded, ps.Workers, c.workers)
	}
}

// checkRouting checks the routing rule on a member that has seen its
// input: three or more joined streams plan whole probe orders with the
// selectivity policy (or the policy installed in its place) and prune the
// sibling probes a plan has made doomed; fewer route per hop by lottery.
func checkRouting(t *testing.T, q *RunningQuery, policy *matrixPolicy, fail func(string, ...any)) {
	t.Helper()
	want := matrixPolicy{name: "lottery"}
	if len(joinStreams(q.Plan)) >= 3 {
		want = matrixPolicy{name: "selectivity", nway: true}
		if policy != nil {
			want = *policy
		}
	}
	qt := q.Telemetry()
	if st := qt.Stats; qt.Policy != want.name || want.nway != (st.Orders > 0) || want.nway != (st.NWayPruned > 0) {
		fail("query %d routes by %s with %d plans and %d pruned probes, want %s (planned %v)",
			q.ID, qt.Policy, st.Orders, st.NWayPruned, want.name, want.nway)
	}
}

// drainClasses waits until every class has taken in all its queued input.
// A class drains under its lock, so once the queues read empty, taking the
// lock waits out the step that emptied them.
func drainClasses(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	var classes []*sharedClass
	for _, sc := range e.shared {
		classes = append(classes, sc)
	}
	e.mu.Unlock()
	for _, sc := range classes {
		waitFor(t, "class "+sc.key+" to drain", func() bool {
			for _, c := range sc.conns {
				if c.Q.Len() > 0 {
					return false
				}
			}
			return true
		})
		sc.mu.Lock()
		dead := sc.dead
		sc.mu.Unlock()
		if dead {
			t.Fatalf("class %s retired while its members stand", sc.key)
		}
	}
}

// awaitResults waits for q's n-th result like waitFor, but fails as soon as
// q's results have stopped moving for half a second with its input queues
// empty: a member that lost rows reports then, not at waitFor's deadline.
func awaitResults(t *testing.T, name string, q *RunningQuery, n int) {
	t.Helper()
	const stall = 500 * time.Millisecond
	clk := chaos.Real()
	start := clk.Now()
	last, since := q.Results(), start
	for last < int64(n) {
		now := clk.Now()
		if got := q.Results(); got != last || !queuesEmpty(q) {
			last, since = got, now
		} else if now.Sub(since) > stall {
			t.Fatalf("%s: %d results of %d, and none for %v with its queues empty", name, last, n, stall)
		}
		if now.Sub(start) > 10*time.Second {
			t.Fatalf("timed out waiting for %s: %d results of %d", name, last, n)
		}
		clk.Sleep(time.Millisecond)
	}
}

// queuesEmpty reports whether none of q's input queues holds a row.
func queuesEmpty(q *RunningQuery) bool {
	for _, c := range q.queues {
		if c.Q.Len() > 0 {
			return false
		}
	}
	return true
}

// fetchRows returns every retained result of q.
func fetchRows(t *testing.T, q *RunningQuery) []*tuple.Tuple {
	t.Helper()
	cur := q.Cursor()
	defer q.CloseCursor(cur)
	res, err := q.Fetch(cur)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// awaitShape waits for a member's results — a windowed loop's end, or an
// unwindowed member's expected count — and returns them in canonical form.
func awaitShape(t *testing.T, sh matrixShape, q *RunningQuery, n int) []baseline.Result {
	t.Helper()
	if sh.path != "" {
		select {
		case <-q.Finished():
		case <-chaos.Real().After(10 * time.Second):
			t.Fatalf("%s: the loop did not end", sh.name)
		}
		// The loop left its streams when it fired its last instance, before
		// its DU retired and reported it finished.
		for pos, c := range q.inputs {
			if !c.Q.Closed() {
				t.Fatalf("%s: input %d of query %d still open once the loop ended", sh.name, pos, q.ID)
			}
		}
	} else {
		awaitResults(t, sh.name, q, n)
	}
	res := fetchRows(t, q)
	rows := make([]baseline.Result, len(res))
	for i, r := range res {
		rows[i] = baseline.Result{TS: r.TS, Vals: r.Vals}
	}
	if sh.cmp == baseline.Instances {
		for i := 1; i < len(rows); i++ {
			if rows[i].TS < rows[i-1].TS {
				t.Fatalf("%s: instance %d emitted after instance %d", sh.name, rows[i].TS, rows[i-1].TS)
			}
		}
	}
	return baseline.Canonical(sh.cmp, rows)
}

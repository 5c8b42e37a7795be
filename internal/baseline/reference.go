package baseline

import (
	"fmt"
	"math"
	"sort"

	"telegraphcq/internal/tuple"
)

// The reference evaluator: what a standing query must answer, computed in
// plain Go (loops, maps and sorts over tuple values) so that no engine
// operator — filter, SteM, arrangement, window buffer, pane, eddy — can
// share a bug with it. The engine's differential matrix replays one seeded
// arrival through every configuration and compares each member against
// what this file derives from the same arrival. A query's own semantics
// (which rows join, which pass its WHERE) are written by the caller next
// to the query text; this file holds what every query shares: the
// arrival, what a member registered at a point of it sees, the window
// firing rule, aggregation, and how results compare.

// Run is one FeedMany call: consecutive rows of one stream.
type Run struct {
	Stream string
	Rows   [][]tuple.Value
}

// Arrival is a whole feed in order: runs of rows, interleaved across
// streams. Within a stream the runs keep the stream's own row order.
type Arrival []Run

// Row is one row as a member sees it: its values and Seq, its 1-based
// position in its stream's feed (its logical time).
type Row struct {
	Seq  int64
	Vals []tuple.Value
}

// Int reads column col as an integer.
func (r Row) Int(col int) int64 { return r.Vals[col].AsInt() }

// View is what a member registered after the first At runs of an arrival
// sees. Tables are loaded before any registration and seen whole.
type View struct {
	Arrival Arrival
	At      int
	Tables  map[string][][]tuple.Value
}

// rows numbers a stream's (or table's) rows and splits them at the
// registration point.
func (v View) rows(stream string) (before, after []Row) {
	if tab, ok := v.Tables[stream]; ok {
		for i, vals := range tab {
			after = append(after, Row{Seq: int64(i) + 1, Vals: vals})
		}
		return nil, after
	}
	seq := int64(0)
	for i, run := range v.Arrival {
		if run.Stream != stream {
			continue
		}
		for _, vals := range run.Rows {
			seq++
			if i < v.At {
				before = append(before, Row{Seq: seq, Vals: vals})
			} else {
				after = append(after, Row{Seq: seq, Vals: vals})
			}
		}
	}
	return before, after
}

// Rows is the unwindowed contract: a member sees the rows fed after it
// registered, in feed order, and a table whole. A join result needs every
// one of its rows to be one the member saw; a running aggregate or DISTINCT
// starts from nothing at registration.
func (v View) Rows(stream string) []Row {
	_, after := v.rows(stream)
	return after
}

// Window is the windowed contract: a member preloads the stream's whole
// history at registration and then takes the rows fed after it. key is
// the window time of a row: physical time reads it from a column, logical
// time is Seq.
func (v View) Window(stream string, key func(Row) int64) (history, live []Keyed) {
	before, after := v.rows(stream)
	keyed := func(rows []Row) []Keyed {
		out := make([]Keyed, len(rows))
		for i, r := range rows {
			out[i] = Keyed{Key: key(r), Row: r}
		}
		return out
	}
	return keyed(before), keyed(after)
}

// Keyed is a row with its window time.
type Keyed struct {
	Key int64
	Row Row
}

// Loop is a forward for-loop: instance t, for t = Init, Init+Step, ...
// while t <= Until, covers window times [Left(t), Right(t)] of each
// windowed stream. Right must not decrease as t grows.
type Loop struct {
	Init, Step, Until int64
	Left, Right       []func(t int64) int64 // one per windowed stream
}

// Instance is one fired loop instance: its loop value and, per windowed
// stream, the rows it covers in arrival order.
type Instance struct {
	T    int64
	Rows [][]Row
}

// FireOne is the firing rule of a loop over one windowed stream.
// Preloaded history fires every instance whose right edge it reaches:
// history is complete. Afterwards an instance closes at the first arrival
// beyond its right edge, and holds every row that arrived before that
// one whose time is inside its window — rows tied at the right edge
// included, a straggler arriving after the close left out (it is late for
// that instance, not for later ones). It returns the fired instances and
// whether the loop ended inside the arrival; an engine run whose loop does
// not end would wait for more input.
func FireOne(loop Loop, history, live []Keyed) (out []Instance, ended bool) {
	t := loop.Init
	var seen []Keyed
	fire := func() {
		inst := Instance{T: t, Rows: [][]Row{nil}}
		lo, hi := loop.Left[0](t), loop.Right[0](t)
		for _, k := range seen {
			if k.Key >= lo && k.Key <= hi {
				inst.Rows[0] = append(inst.Rows[0], k.Row)
			}
		}
		out = append(out, inst)
		t += loop.Step
	}
	maxKey := int64(-1 << 62)
	for _, k := range history {
		seen = append(seen, k)
		maxKey = max(maxKey, k.Key)
	}
	for t <= loop.Until && maxKey >= loop.Right[0](t) {
		fire()
	}
	for _, k := range live {
		for t <= loop.Until && k.Key > loop.Right[0](t) {
			fire()
		}
		if t > loop.Until {
			break
		}
		seen = append(seen, k)
	}
	return out, t > loop.Until
}

// FireInOrder is the firing rule of a loop over several windowed streams,
// each fed in time order. An instance fires when every stream has moved
// beyond its right edge; in-order input means every row inside its windows
// has arrived by then. At registration the history fires every instance
// it reaches on every stream, over the history alone. It panics on input
// out of time order: the rule between drains is defined for in-order
// arrival only.
func FireInOrder(loop Loop, history, live [][]Keyed) (out []Instance, ended bool) {
	n := len(loop.Right)
	histMax, allMax := make([]int64, n), make([]int64, n)
	for p := 0; p < n; p++ {
		histMax[p], allMax[p] = -1<<62, -1<<62
		for _, k := range append(append([]Keyed(nil), history[p]...), live[p]...) {
			if k.Key < allMax[p] {
				panic(fmt.Sprintf("baseline: stream %d out of time order at key %d", p, k.Key))
			}
			allMax[p] = k.Key
		}
		for _, k := range history[p] {
			histMax[p] = max(histMax[p], k.Key)
		}
	}
	reached := func(t int64, top []int64, beyond bool) bool {
		for p := 0; p < n; p++ {
			if r := loop.Right[p](t); top[p] < r || beyond && top[p] == r {
				return false
			}
		}
		return true
	}
	collect := func(t int64, rows [][]Keyed) Instance {
		inst := Instance{T: t, Rows: make([][]Row, n)}
		for p := 0; p < n; p++ {
			lo, hi := loop.Left[p](t), loop.Right[p](t)
			for _, k := range rows[p] {
				if k.Key >= lo && k.Key <= hi {
					inst.Rows[p] = append(inst.Rows[p], k.Row)
				}
			}
		}
		return inst
	}
	all := make([][]Keyed, n)
	for p := range all {
		all[p] = append(append([]Keyed(nil), history[p]...), live[p]...)
	}
	t := loop.Init
	for ; t <= loop.Until && reached(t, histMax, false); t += loop.Step {
		out = append(out, collect(t, history))
	}
	for ; t <= loop.Until && reached(t, allMax, true); t += loop.Step {
		out = append(out, collect(t, all))
	}
	return out, t > loop.Until
}

// Agg is one aggregate of a select list: Fn is COUNT, SUM, AVG, MIN or
// MAX, over column Col (COUNT(*) ignores it).
type Agg struct {
	Fn  string
	Col int
}

// Aggregate groups rows by column group (-1: one group) and computes aggs
// per group. Each output row is the group value (when grouped) followed by
// one value per aggregate; groups come in first-seen order, and no rows
// give no groups. COUNT is an integer, SUM and AVG floats, MIN and MAX the
// column's own value (the first of equals).
func Aggregate(rows []Row, group int, aggs ...Agg) [][]tuple.Value {
	type state struct {
		key      tuple.Value
		count    int64
		sum      []float64
		min, max []tuple.Value
	}
	var order []*state
	byKey := map[string]*state{}
	for _, r := range rows {
		var key tuple.Value
		if group >= 0 {
			key = r.Vals[group]
		}
		id := fmt.Sprintf("%d/%v", key.K, key)
		s := byKey[id]
		if s == nil {
			s = &state{key: key, sum: make([]float64, len(aggs)),
				min: make([]tuple.Value, len(aggs)), max: make([]tuple.Value, len(aggs))}
			byKey[id] = s
			order = append(order, s)
		}
		for i, a := range aggs {
			if a.Fn == "COUNT" {
				continue
			}
			v := r.Vals[a.Col]
			s.sum[i] += v.AsFloat()
			if s.count == 0 || tuple.Compare(v, s.min[i]) < 0 {
				s.min[i] = v
			}
			if s.count == 0 || tuple.Compare(v, s.max[i]) > 0 {
				s.max[i] = v
			}
		}
		s.count++
	}
	out := make([][]tuple.Value, 0, len(order))
	for _, s := range order {
		var vals []tuple.Value
		if group >= 0 {
			vals = append(vals, s.key)
		}
		for i, a := range aggs {
			switch a.Fn {
			case "COUNT":
				vals = append(vals, tuple.Int(s.count))
			case "SUM":
				vals = append(vals, tuple.Float(s.sum[i]))
			case "AVG":
				vals = append(vals, tuple.Float(s.sum[i]/float64(s.count)))
			case "MIN":
				vals = append(vals, s.min[i])
			case "MAX":
				vals = append(vals, s.max[i])
			default:
				panic("baseline: unknown aggregate " + a.Fn)
			}
		}
		out = append(out, vals)
	}
	return out
}

// FirstN is LIMIT n over one window instance, applied before aggregation
// as the engine's rescan does: the first n rows in window-time order, ties
// in arrival order.
func FirstN(rows []Row, key func(Row) int64, n int) []Row {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	return sorted[:min(n, len(sorted))]
}

// Result is one result row: the timestamp the engine promises (a
// selection's or running aggregate's input row, a window instance's loop
// value) and the values.
type Result struct {
	TS   int64
	Vals []tuple.Value
}

func (r Result) String() string { return fmt.Sprintf("ts=%d %v", r.TS, r.Vals) }

// Order is what a query promises about the order of its results.
type Order int

const (
	Sequence  Order = iota // the exact sequence, timestamps included
	Multiset               // sorted values; a join's TS follows probe order
	Instances              // window instances in fire order, each a set
)

// Canonical orders rows for comparison under order: a sequence stays as it
// is, a multiset sorts by values (timestamps dropped), window instances
// sort by loop value and then values.
func Canonical(order Order, rows []Result) []Result {
	byVals := func(a, b []tuple.Value) int {
		for i := 0; i < min(len(a), len(b)); i++ {
			if c := tuple.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	}
	switch order {
	case Multiset:
		for i := range rows {
			rows[i].TS = 0
		}
		sort.Slice(rows, func(i, j int) bool { return byVals(rows[i].Vals, rows[j].Vals) < 0 })
	case Instances:
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].TS != rows[j].TS {
				return rows[i].TS < rows[j].TS
			}
			return byVals(rows[i].Vals, rows[j].Vals) < 0
		})
	}
	return rows
}

// Diff describes the first difference between canonical got and want, or
// returns "". Values must match in kind and value, except column avg (-1:
// none) of window instances, an AVG, which matches to 1e-9 relative: panes
// add in pane order, the reference in arrival order.
func Diff(order Order, avg int, got, want []Result) string {
	same := func(g, w Result) bool {
		if g.TS != w.TS || len(g.Vals) != len(w.Vals) {
			return false
		}
		for c, wv := range w.Vals {
			gv := g.Vals[c]
			if c == avg && order == Instances && gv.K == tuple.KindFloat && wv.K == tuple.KindFloat &&
				math.Abs(gv.F-wv.F) <= 1e-9*math.Max(1, math.Abs(wv.F)) {
				continue
			}
			if gv.K != wv.K || !tuple.Equal(gv, wv) {
				return false
			}
		}
		return true
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if !same(got[i], want[i]) {
			return fmt.Sprintf("row %d is %s, the reference %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, the reference %d", len(got), len(want))
	}
	return ""
}

package ops

import (
	"fmt"

	"telegraphcq/internal/tuple"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
)

// String names the aggregate in SQL syntax.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggSpec is one aggregate expression: Fn over wide-row column Col (Col is
// ignored for COUNT(*), pass -1).
type AggSpec struct {
	Fn  AggFunc
	Col int
}

// String renders "SUM($3)".
func (s AggSpec) String() string {
	if s.Col < 0 {
		return s.Fn.String() + "(*)"
	}
	return fmt.Sprintf("%s($%d)", s.Fn, s.Col)
}

// accum is the running state of one aggregate over one group. Each
// function keeps only what its result reads: COUNT the count, SUM and AVG
// the count and the float sum, MIN and MAX their extreme (the first of
// equal values wins) and whether there is one.
type accum struct {
	count int64
	sum   float64
	min   tuple.Value
	max   tuple.Value
	seen  bool
}

// add folds one value of a row into the state of function fn.
func (a *accum) add(fn AggFunc, v tuple.Value) {
	switch fn {
	case Count:
		a.count++
	case Min:
		if !a.seen || tuple.Compare(v, a.min) < 0 {
			a.min, a.seen = v, true
		}
	case Max:
		if !a.seen || tuple.Compare(v, a.max) > 0 {
			a.max, a.seen = v, true
		}
	default:
		a.count++
		a.sum += v.AsFloat()
	}
}

// merge folds b, the state of rows that arrived after a's, into a: the
// result is what adding b's rows one by one would give, except that the
// float sum adds b's partial sum instead of b's values.
func (a *accum) merge(fn AggFunc, b *accum) {
	switch fn {
	case Min:
		if b.seen && (!a.seen || tuple.Compare(b.min, a.min) < 0) {
			a.min, a.seen = b.min, true
		}
	case Max:
		if b.seen && (!a.seen || tuple.Compare(b.max, a.max) > 0) {
			a.max, a.seen = b.max, true
		}
	default:
		a.count += b.count
		a.sum += b.sum
	}
}

func (a *accum) result(fn AggFunc) tuple.Value {
	switch fn {
	case Count:
		return tuple.Int(a.count)
	case Sum:
		return tuple.Float(a.sum)
	case Avg:
		if a.count == 0 {
			return tuple.Null
		}
		return tuple.Float(a.sum / float64(a.count))
	case Min:
		if !a.seen {
			return tuple.Null
		}
		return a.min
	case Max:
		if !a.seen {
			return tuple.Null
		}
		return a.max
	default:
		return tuple.Null
	}
}

// foldRow adds one row to a group's accumulators, one per spec.
//
//tcq:hotpath
func foldRow(specs []AggSpec, accs []accum, t *tuple.Tuple) {
	for i, s := range specs {
		if s.Col < 0 {
			accs[i].count++
			continue
		}
		accs[i].add(s.Fn, t.Vals[s.Col])
	}
}

// groupDict numbers the groups of a GROUP BY with dense slots 0, 1, 2, ...
// in the order their keys first appear. A key is found by its 64-bit hash
// and confirmed by comparing values, so distinct keys whose hashes collide
// (NULL and the string "\x00" do) keep separate groups.
//
// A sliding PaneAgg counts, per slot, the live panes holding the group and
// frees the slot when the last of them is evicted; a later group takes a
// freed slot before a new one. The dictionary, and every pane's index into
// it, is then as large as the most groups live panes ever held at once, not
// as the groups ever seen.
type groupDict struct {
	cols []int
	head map[uint64]int32 // key hash → newest slot with that hash
	next []int32          // slot → older slot with the same hash, or -1
	hash []uint64         // slot → its key's hash
	keys []tuple.Value    // slot s's key values: keys[s*len(cols):][:len(cols)]
	refs []int32          // slot → live panes holding the group (PaneAgg)
	free []int32          // freed slots, for the next new groups
}

func newGroupDict(cols []int) groupDict {
	return groupDict{cols: cols, head: make(map[uint64]int32)}
}

// find returns t's group slot, adding one for a key not seen before.
//
//tcq:hotpath
func (d *groupDict) find(t *tuple.Tuple) int32 {
	if len(d.cols) == 0 && len(d.next) > 0 {
		return 0 // ungrouped: one group
	}
	h := uint64(1469598103934665603)
	for _, c := range d.cols {
		h = h*1099511628211 ^ t.Vals[c].Hash()
	}
	s, ok := d.head[h]
	for ok && s >= 0 {
		if d.holds(s, t) {
			return s
		}
		s = d.next[s]
	}
	return d.insert(h, t)
}

// holds reports whether slot s's key is t's.
func (d *groupDict) holds(s int32, t *tuple.Tuple) bool {
	key := d.keys[int(s)*len(d.cols):]
	for i, c := range d.cols {
		if !tuple.Equal(key[i], t.Vals[c]) {
			return false
		}
	}
	return true
}

// insert gives t's key, of hash h, a freed slot or else the next one: once
// per group.
//
//tcq:coldpath
func (d *groupDict) insert(h uint64, t *tuple.Tuple) int32 {
	k := len(d.cols)
	var s int32
	if n := len(d.free); n > 0 {
		s, d.free = d.free[n-1], d.free[:n-1]
		d.hash[s] = h // refs[s] is 0: that freed it
		key := d.keys[int(s)*k : (int(s)+1)*k]
		for i, c := range d.cols {
			key[i] = t.Vals[c]
		}
	} else {
		s = int32(len(d.next))
		d.next = append(d.next, -1)
		d.hash = append(d.hash, h)
		d.refs = append(d.refs, 0)
		for _, c := range d.cols {
			d.keys = append(d.keys, t.Vals[c])
		}
	}
	prev, ok := d.head[h]
	if !ok {
		prev = -1
	}
	d.next[s] = prev
	d.head[h] = s
	return s
}

// drop counts one live pane fewer holding slot s's group and, at none,
// frees the slot: its key finds it no more. An ungrouped dictionary keeps
// its one slot, which find hands out without a lookup.
func (d *groupDict) drop(s int32) {
	if d.refs[s]--; d.refs[s] > 0 || len(d.cols) == 0 {
		return
	}
	h := d.hash[s]
	if p := d.head[h]; p == s {
		if d.next[s] < 0 {
			delete(d.head, h)
		} else {
			d.head[h] = d.next[s]
		}
	} else {
		for d.next[p] != s {
			p = d.next[p]
		}
		d.next[p] = d.next[s]
	}
	k := len(d.cols)
	clear(d.keys[int(s)*k : (int(s)+1)*k]) // pin no key values while free
	d.free = append(d.free, s)
}

// rowSlab is the memory rows renders into: the tuples, their values, and
// the pointers handed out.
type rowSlab struct {
	tups []tuple.Tuple
	vals []tuple.Value
	out  []*tuple.Tuple
}

// rows renders n output rows, one per group: for the i-th slot of order
// (slot i when order is nil), its key values and then one value per spec
// from accs[i*len(specs):]. The rows are written into slab, which is
// replaced by fresh memory when it is too small: all rows share the slab's
// three allocations.
func (d *groupDict) rows(n int, order []int32, specs []AggSpec, accs []accum, slab *rowSlab) []*tuple.Tuple {
	k, w := len(d.cols), len(d.cols)+len(specs)
	if cap(slab.tups) < n || cap(slab.vals) < n*w {
		*slab = rowSlab{tups: make([]tuple.Tuple, n), vals: make([]tuple.Value, n*w), out: make([]*tuple.Tuple, n)}
	}
	tups, vals, out := slab.tups[:n], slab.vals[:n*w], slab.out[:n]
	clear(tups)
	for i := range out {
		s := i
		if order != nil {
			s = int(order[i])
		}
		v := vals[i*w : (i+1)*w : (i+1)*w]
		copy(v, d.keys[s*k:(s+1)*k])
		for j, sp := range specs {
			v[k+j] = accs[i*len(specs)+j].result(sp.Fn)
		}
		tups[i].Vals = v
		out[i] = &tups[i]
	}
	return out
}

// Aggregator computes grouped aggregates over the tuple set of one window
// instance. Output tuples carry the group key values followed by one value
// per AggSpec. A sliding or landmark window over one stream is aggregated
// by PaneAgg instead, which folds each row once rather than once per
// instance (§4.1.2 notes a landmark MAX needs no window retention while a
// sliding MAX requires the whole window; panes keep partials, not rows).
type Aggregator struct {
	GroupCols []int
	Specs     []AggSpec
}

// NewAggregator builds a grouped aggregator.
func NewAggregator(groupCols []int, specs ...AggSpec) *Aggregator {
	return &Aggregator{GroupCols: groupCols, Specs: specs}
}

// Compute evaluates the aggregates over the given window instance,
// returning one output tuple per group in first-seen order.
func (a *Aggregator) Compute(tuples []*tuple.Tuple) []*tuple.Tuple {
	d := newGroupDict(a.GroupCols)
	ns := len(a.Specs)
	var accs []accum
	for _, t := range tuples {
		s := int(d.find(t))
		for len(accs) < (s+1)*ns {
			accs = append(accs, accum{})
		}
		foldRow(a.Specs, accs[s*ns:(s+1)*ns], t)
	}
	return d.rows(len(d.next), nil, a.Specs, accs, &rowSlab{})
}

// PaneAgg computes grouped aggregates over every instance of a forward
// window loop by panes (Li et al., "No Pane, No Gain", SIGMOD Record 2005):
// window time is cut into panes of one width, pane i covering
// [origin + i*width, origin + (i+1)*width), each pane keeps one partial
// aggregate per group, and an instance is the combination of the panes it
// covers. A width dividing both the window's extent and the loop's step
// puts every instance edge on a pane edge. Each row is read once, when it
// is folded, however many instances overlap it.
//
// A landmark window (left edge fixed) is the same store plus a prefix:
// panes every later instance covers whole merge into the prefix instead of
// being dropped, and a late row below the live panes folds into it.
//
// Groups are numbered once, in a dictionary shared by every pane; a
// sliding window frees a group's number when it evicts the last pane
// holding the group, so a stream of ever-new keys keeps the memory of the
// groups in the window only. Within a pane, accumulators are dense: one run
// of len(specs) per group present, in the order the groups first appeared
// there. Float SUM and AVG add in
// pane order, not row order, so they agree with a row-at-a-time sum to
// rounding, not bit for bit; everything else is exact.
//
// PaneAgg is not safe for concurrent use.
type PaneAgg struct {
	specs    []AggSpec
	dict     groupDict
	origin   int64
	width    int64
	landmark bool

	panes  []*pane // live panes in index order; only panes holding rows
	free   []*pane // retired panes kept for reuse, capacity and all
	lo     int64   // panes below lo have left the live set
	prefix pane    // landmark: every retired pane, merged
	rows   int64   // rows folded into live panes

	zero   []accum // len(specs) zero accumulators: a group's initial run
	window pane    // Combine's scratch: the instance being built
	// out holds the rows Combine last returned; with reuse (Reuse) the
	// next Combine writes over them.
	out   rowSlab
	reuse bool
}

// pane is one pane's partial aggregates, or a merge of several.
type pane struct {
	idx   int64
	rows  int64
	local []int32 // group slot → 1 + its place in order; 0 when absent
	order []int32 // group slots in the order they first appeared
	accs  []accum // the i-th group of order has accs[i*len(specs):][:len(specs)]
}

// NewPaneAgg builds a pane aggregator whose pane 0 starts at window time
// origin (the first instance's left edge) and whose panes are width wide.
// landmark keeps a prefix of retired panes instead of dropping them.
func NewPaneAgg(groupCols []int, specs []AggSpec, origin, width int64, landmark bool) *PaneAgg {
	return &PaneAgg{
		specs:    specs,
		dict:     newGroupDict(groupCols),
		origin:   origin,
		width:    width,
		landmark: landmark,
		zero:     make([]accum, len(specs)),
	}
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// paneOf returns the index of the pane holding window time key.
func (a *PaneAgg) paneOf(key int64) int64 { return floorDiv(key-a.origin, a.width) }

// Fold adds one row, at window time key, to its pane. It reports false,
// folding nothing, for a row no instance still to come covers: one below
// every live pane or, on a landmark, below the fixed left edge (a landmark
// folds a row below its live panes into the prefix).
//
//tcq:hotpath
func (a *PaneAgg) Fold(key int64, t *tuple.Tuple) bool {
	p := a.paneFor(a.paneOf(key))
	if p == nil {
		return false
	}
	ns, s, n := len(a.specs), a.dict.find(t), len(p.order)
	i := p.group(s, a.zero)
	if len(p.order) > n && !a.landmark {
		a.dict.refs[s]++ // the group's first row in this pane; see Evict
	}
	foldRow(a.specs, p.accs[i*ns:(i+1)*ns], t)
	p.rows++
	if p != &a.prefix {
		a.rows++
	}
	return true
}

// paneFor returns the pane with index idx, opening it if it holds nothing
// yet; the prefix for a landmark's retired panes; nil below those.
//
//tcq:hotpath
func (a *PaneAgg) paneFor(idx int64) *pane {
	if idx < a.lo {
		if a.landmark && idx >= 0 {
			return &a.prefix
		}
		return nil
	}
	i := len(a.panes)
	for i > 0 && a.panes[i-1].idx > idx {
		i-- // an out-of-order row: walk back from the newest pane
	}
	if i > 0 && a.panes[i-1].idx == idx {
		return a.panes[i-1]
	}
	return a.open(idx, i)
}

// open inserts an empty pane with index idx at position i of the live
// panes, reusing a retired one when there is one: once per pane.
//
//tcq:coldpath
func (a *PaneAgg) open(idx int64, i int) *pane {
	var p *pane
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		p = new(pane)
	}
	p.idx = idx
	a.panes = append(a.panes, nil)
	copy(a.panes[i+1:], a.panes[i:])
	a.panes[i] = p
	return p
}

// group returns where slot s's accumulators start in the pane (in runs of
// len(zero)), entering the group on its first row. A reused pane keeps the
// capacity of everything it held before, so this allocates only while a
// pane sees more groups than any pane before it.
func (p *pane) group(s int32, zero []accum) int {
	if int(s) < len(p.local) && p.local[s] > 0 {
		return int(p.local[s]) - 1
	}
	for len(p.local) <= int(s) {
		p.local = append(p.local, 0)
	}
	p.order = append(p.order, s)
	p.accs = append(p.accs, zero...)
	p.local[s] = int32(len(p.order))
	return len(p.order) - 1
}

// merge folds src's groups into dst, src's rows counting as later than
// dst's.
func (a *PaneAgg) merge(dst, src *pane) {
	ns := len(a.specs)
	for j, s := range src.order {
		i := dst.group(s, a.zero)
		for k, sp := range a.specs {
			dst.accs[i*ns+k].merge(sp.Fn, &src.accs[j*ns+k])
		}
	}
	dst.rows += src.rows
}

// reset empties the pane, keeping its memory.
func (p *pane) reset() {
	for _, s := range p.order {
		p.local[s] = 0
	}
	p.order, p.accs, p.rows = p.order[:0], p.accs[:0], 0
}

// Combine returns the aggregates of the instance whose window is
// [left, right], edges on pane boundaries: the landmark prefix, then every
// live pane the window covers, merged in pane order, one row per group.
// Groups come in first-appearance order: pane order, then arrival order
// within a pane. The rows are fresh unless Reuse was called since the last
// Combine, in which case they are written over that call's rows.
func (a *PaneAgg) Combine(left, right int64) []*tuple.Tuple {
	lo, hi := a.paneOf(left), a.paneOf(right+1)-1
	w := &a.window
	a.merge(w, &a.prefix)
	for _, p := range a.panes {
		if p.idx > hi {
			break
		}
		if p.idx >= lo {
			a.merge(w, p)
		}
	}
	if !a.reuse {
		a.out = rowSlab{}
	}
	a.reuse = false
	out := a.dict.rows(len(w.order), w.order, a.specs, w.accs, &a.out)
	w.reset()
	return out
}

// Reuse reports that nobody holds the rows the last Combine returned any
// longer, so the next Combine may write over them.
func (a *PaneAgg) Reuse() { a.reuse = true }

// Evict retires every live pane wholly below window time below, which
// must be a pane edge: a landmark merges them into its prefix, any other
// window drops them, and with them the groups no live pane still holds.
// Their memory is kept for the panes still to come.
func (a *PaneAgg) Evict(below int64) {
	lo := a.paneOf(below)
	if lo <= a.lo {
		return
	}
	a.lo = lo
	n := 0
	for ; n < len(a.panes) && a.panes[n].idx < lo; n++ {
		p := a.panes[n]
		if a.landmark {
			a.merge(&a.prefix, p) // the prefix holds every group seen
		} else {
			for _, s := range p.order {
				a.dict.drop(s)
			}
		}
		a.rows -= p.rows
		p.reset()
		a.free = append(a.free, p)
	}
	m := copy(a.panes, a.panes[n:])
	clear(a.panes[m:])
	a.panes = a.panes[:m]
}

// Rows returns the number of rows folded into live panes (not the
// landmark prefix, which holds none).
func (a *PaneAgg) Rows() int64 { return a.rows }

// Panes returns the number of live panes.
func (a *PaneAgg) Panes() int { return len(a.panes) }

// Slots returns the group slots the dictionary has handed out, in use or
// freed for reuse: the length of the longest per-group index any pane
// keeps. On a sliding window it is bounded by the groups the live panes
// held at once, however many groups the stream has brought.
func (a *PaneAgg) Slots() int { return len(a.dict.next) }

// LandmarkAgg maintains aggregates incrementally for a landmark window:
// the window only ever grows, so each arrival folds into running state and
// no tuples are retained.
type LandmarkAgg struct {
	Specs []AggSpec
	accs  []accum
}

// NewLandmarkAgg builds an incremental (ungrouped) landmark aggregator.
func NewLandmarkAgg(specs ...AggSpec) *LandmarkAgg {
	return &LandmarkAgg{Specs: specs, accs: make([]accum, len(specs))}
}

// Add folds one tuple into the running aggregates.
func (l *LandmarkAgg) Add(t *tuple.Tuple) { foldRow(l.Specs, l.accs, t) }

// Result returns the current aggregate values.
func (l *LandmarkAgg) Result() *tuple.Tuple {
	vals := make([]tuple.Value, len(l.Specs))
	for i, s := range l.Specs {
		vals[i] = l.accs[i].result(s.Fn)
	}
	return tuple.New(vals...)
}

// Reset clears the running state (used when a landmark query restarts).
func (l *LandmarkAgg) Reset() { l.accs = make([]accum, len(l.Specs)) }

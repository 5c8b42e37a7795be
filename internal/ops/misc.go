package ops

import (
	"container/heap"
	"sort"

	"telegraphcq/internal/tuple"
)

// Project narrows tuples to the given wide-row columns.
type Project struct {
	Cols []int
}

// NewProject builds a projection.
func NewProject(cols ...int) *Project { return &Project{Cols: cols} }

// Apply returns a fresh tuple holding only the projected columns, with t's
// timestamps and source set. Projection is a final output step, so the
// result carries no lineage: CACQ lineage routes a tuple in flight and
// means nothing on a delivered row.
func (p *Project) Apply(t *tuple.Tuple) *tuple.Tuple {
	out := &tuple.Tuple{TS: t.TS, Seq: t.Seq, Source: t.Source}
	out.Vals = make([]tuple.Value, len(p.Cols))
	for i, c := range p.Cols {
		out.Vals[i] = t.Vals[c]
	}
	return out
}

// ApplyTo is Apply writing into dst, a row an earlier ApplyTo or Apply of
// this projection returned and nobody holds any longer; with dst nil it is
// Apply.
func (p *Project) ApplyTo(dst, t *tuple.Tuple) *tuple.Tuple {
	if dst == nil {
		return p.Apply(t)
	}
	dst.TS, dst.Seq, dst.Source, dst.Done, dst.Queries = t.TS, t.Seq, t.Source, 0, nil
	for i, c := range p.Cols {
		dst.Vals[i] = t.Vals[c]
	}
	return dst
}

// DupElim suppresses tuples whose projected key columns repeat. It is a
// streaming operator: the first tuple of each key passes.
type DupElim struct {
	Cols []int
	seen map[uint64][][]tuple.Value
}

// NewDupElim builds duplicate elimination over the given columns (empty
// means all columns).
func NewDupElim(cols ...int) *DupElim {
	return &DupElim{Cols: cols, seen: make(map[uint64][][]tuple.Value)}
}

func (d *DupElim) key(t *tuple.Tuple) []tuple.Value {
	if len(d.Cols) == 0 {
		return t.Vals
	}
	key := make([]tuple.Value, len(d.Cols))
	for i, c := range d.Cols {
		key[i] = t.Vals[c]
	}
	return key
}

// Accept reports whether t is new; it records the key when so.
func (d *DupElim) Accept(t *tuple.Tuple) bool {
	key := d.key(t)
	h := uint64(1469598103934665603)
	for _, v := range key {
		h = h*1099511628211 ^ v.Hash()
	}
	for _, k := range d.seen[h] {
		if equalKey(k, key) {
			return false
		}
	}
	stored := make([]tuple.Value, len(key))
	copy(stored, key)
	d.seen[h] = append(d.seen[h], stored)
	return true
}

// Reset clears the seen set (between window instances of set-semantics
// queries).
func (d *DupElim) Reset() { d.seen = make(map[uint64][][]tuple.Value) }

func equalKey(a, b []tuple.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// SortTuples orders a window instance by the given column (ascending when
// asc, else descending). It sorts in place and returns its argument.
func SortTuples(ts []*tuple.Tuple, col int, asc bool) []*tuple.Tuple {
	sort.SliceStable(ts, func(i, j int) bool {
		c := tuple.Compare(ts[i].Vals[col], ts[j].Vals[col])
		if asc {
			return c < 0
		}
		return c > 0
	})
	return ts
}

// Juggle implements online dynamic reordering [RRH99]: a bounded buffer
// that releases the highest-priority tuple first, letting interesting
// records reach the user early while the rest trickle out. Priority is
// user-supplied (e.g. "rows matching the on-screen range first").
type Juggle struct {
	priority func(*tuple.Tuple) float64
	cap      int
	h        juggleHeap
}

// NewJuggle creates a juggler holding at most capacity tuples; Push returns
// evicted overflow in FIFO arrival order.
func NewJuggle(capacity int, priority func(*tuple.Tuple) float64) *Juggle {
	return &Juggle{priority: priority, cap: capacity}
}

// Len returns the number of buffered tuples.
func (j *Juggle) Len() int { return j.h.Len() }

// Push inserts a tuple; if the buffer is full, the lowest-priority resident
// is returned to make room (it must be emitted downstream).
func (j *Juggle) Push(t *tuple.Tuple) (evicted *tuple.Tuple) {
	heap.Push(&j.h, juggleItem{t: t, pri: j.priority(t)})
	if j.h.Len() > j.cap {
		// Evict the minimum-priority element: it is the one the user
		// wants last anyway.
		min := 0
		for i := 1; i < j.h.Len(); i++ {
			if j.h.items[i].pri < j.h.items[min].pri {
				min = i
			}
		}
		it := heap.Remove(&j.h, min).(juggleItem)
		return it.t
	}
	return nil
}

// Pop removes and returns the highest-priority tuple, or nil when empty.
func (j *Juggle) Pop() *tuple.Tuple {
	if j.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&j.h).(juggleItem).t
}

type juggleItem struct {
	t   *tuple.Tuple
	pri float64
}

type juggleHeap struct {
	items []juggleItem
}

func (h juggleHeap) Len() int            { return len(h.items) }
func (h juggleHeap) Less(i, j int) bool  { return h.items[i].pri > h.items[j].pri }
func (h juggleHeap) Swap(i, j int)       { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *juggleHeap) Push(x interface{}) { h.items = append(h.items, x.(juggleItem)) }
func (h *juggleHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Package ops provides the pipelined, non-blocking query modules of
// Telegraph (§2.1): selections, SteM-based joins, projections, grouped
// windowed aggregation, duplicate elimination, sorting, and the Juggle
// online-reordering operator. Modules that attach to an eddy implement
// eddy.Module; the rest operate on window instances downstream of the eddy
// output.
package ops

import (
	"fmt"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// Filter is a single-predicate selection module. It applies to any tuple
// spanning the stream owning the predicate's column.
type Filter struct {
	name string
	pred expr.Predicate
	owns tuple.SourceSet

	// mask is the reused selection bitmap for the batch path: predicates
	// evaluate into it, then survivors are selected in one pass
	// (Batch.PartitionByMask).
	mask tuple.Mask
}

// NewFilter builds a filter over the layout for the given wide-row
// predicate.
func NewFilter(name string, layout *tuple.Layout, pred expr.Predicate) *Filter {
	return &Filter{name: name, pred: pred, owns: layout.OwnerSet(pred.Col)}
}

// Name implements eddy.Module.
func (f *Filter) Name() string { return f.name }

// Predicate returns the filter's predicate.
func (f *Filter) Predicate() expr.Predicate { return f.pred }

// AppliesTo implements eddy.Module: the filter must see every tuple
// carrying the column it tests.
func (f *Filter) AppliesTo(src tuple.SourceSet) bool { return src.Contains(f.owns) }

// ProcessBatch implements eddy.Module: the whole batch is evaluated
// under one dispatch into a selection mask, survivors stably partitioned
// to the front by the shared mask partition.
//
//tcq:hotpath
func (f *Filter) ProcessBatch(b *tuple.Batch) ([]*tuple.Tuple, int) {
	ts := b.Tuples
	f.mask.Reset(len(ts))
	for i, t := range ts {
		if f.pred.Eval(t) {
			f.mask.Set(i)
		}
	}
	return nil, b.PartitionByMask(&f.mask)
}

// String describes the filter.
func (f *Filter) String() string { return fmt.Sprintf("Filter[%s %s]", f.name, f.pred) }

package tuple

// Batch is the unit of execution for the vectorized dataflow: a slice of
// tuples that share one schema and — inside the eddy — one routing lineage
// (identical Source and Done bitmaps). Moving batches instead of single
// tuples amortizes routing decisions, lock acquisitions, and fjord handoff
// over len(Tuples) rows; per-tuple semantics are preserved inside the
// batch because every module still evaluates each row individually.
//
// A Batch is a lightweight header. The tuples themselves remain
// independently owned *Tuple values recycled through Pool; the Batch never
// outlives one processing step, so batches themselves are reused via
// simple free lists rather than pooled globally.
type Batch struct {
	// Tuples holds the rows. Processing steps may reorder or truncate the
	// slice in place (e.g. a filter partitions survivors to the front).
	Tuples []*Tuple

	// Schema optionally records the shared schema of the rows ("" /nil for
	// intermediates); it is advisory and never consulted on the hot path.
	Schema *Schema

	// scratch backs PartitionByMask's stable partition; reused across
	// calls so survivor selection allocates nothing in steady state.
	scratch []*Tuple
}

// NewBatch returns an empty batch with capacity for n tuples. Batch
// headers are recycled by their owners (Eddy keeps a freelist), so this
// constructor runs on freelist misses only.
//
//tcq:coldpath
func NewBatch(n int) *Batch {
	return &Batch{Tuples: make([]*Tuple, 0, n)}
}

// Append adds t to the batch.
func (b *Batch) Append(t *Tuple) { b.Tuples = append(b.Tuples, t) }

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// PartitionByMask stably partitions the batch in place by the selection
// mask: rows whose bit is set move to the front (order preserved), rows
// whose bit is clear follow (order preserved), and the survivor count is
// returned. This is the one shared implementation of mask-based survivor
// selection — filters and grouped filters evaluate into a Mask and call
// it, instead of each keeping a private dropped-tuple splice.
func (b *Batch) PartitionByMask(m *Mask) int {
	ts := b.Tuples
	b.scratch = b.scratch[:0]
	w := 0
	for i, t := range ts {
		if m.Test(i) {
			ts[w] = t
			w++
		} else {
			b.scratch = append(b.scratch, t)
		}
	}
	copy(ts[w:], b.scratch)
	for i := range b.scratch {
		b.scratch[i] = nil
	}
	return w
}

// Reset empties the batch, clearing tuple references so pooled rows are
// not pinned, and keeps the backing array for reuse.
func (b *Batch) Reset() {
	for i := range b.Tuples {
		b.Tuples[i] = nil
	}
	b.Tuples = b.Tuples[:0]
}

package tuple

// Mask is a fixed-length selection bitmap over the rows of a Batch: bit i
// set means row i survives the current operator. Operators evaluate
// predicates into a Mask and then partition survivors in one tight pass,
// instead of splicing pointer slices per row. Unlike Bitset (which grows
// on Set and serves unbounded query-ID spaces), a Mask is sized once per
// batch via Reset and reused across batches, so the survivor-selection
// path allocates nothing in steady state.
type Mask struct {
	words []uint64
}

// Reset sizes the mask for n rows with every bit clear, reusing the
// backing words when capacity allows.
//
//tcq:hotpath
func (m *Mask) Reset(n int) {
	w := (n + 63) >> 6
	if cap(m.words) < w {
		m.grow(w)
	} else {
		m.words = m.words[:w]
		for i := range m.words {
			m.words[i] = 0
		}
	}
}

// grow replaces the backing words with a larger slab. It runs once per
// high-water mark — batch sizes are fixed per query, so after the first
// batch every Reset reuses the same words.
//
//tcq:coldpath
func (m *Mask) grow(w int) {
	m.words = make([]uint64, w)
}

// Set marks row i as surviving.
//
//tcq:hotpath
func (m *Mask) Set(i int) { m.words[i>>6] |= 1 << uint(i&63) }

// Test reports whether row i survives.
//
//tcq:hotpath
func (m *Mask) Test(i int) bool { return m.words[i>>6]&(1<<uint(i&63)) != 0 }

package tuple

import "math/bits"

// Bitset is a growable bitmap used for tuple lineage: CACQ attaches one bit
// per standing query to each tuple recording whether the tuple can still
// contribute to that query's answer (§3.1 "tuple lineage").
type Bitset []uint64

// NewBitset returns a bitset able to hold at least n bits.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

func (b *Bitset) grow(word int) {
	for len(*b) <= word {
		*b = append(*b, 0)
	}
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.grow(i / 64)
	(*b)[i/64] |= 1 << uint(i%64)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	if i/64 < len(*b) {
		(*b)[i/64] &^= 1 << uint(i%64)
	}
}

// Test reports whether bit i is set.
func (b Bitset) Test(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<uint(i%64)) != 0
}

// SetAll sets bits [0, n).
func (b *Bitset) SetAll(n int) {
	b.grow((n - 1) / 64)
	for i := range *b {
		(*b)[i] = 0
	}
	full := n / 64
	for i := 0; i < full; i++ {
		(*b)[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		(*b)[full] = (1 << uint(rem)) - 1
	}
}

// And intersects b with other in place.
func (b Bitset) And(other Bitset) {
	for i := range b {
		if i < len(other) {
			b[i] &= other[i]
		} else {
			b[i] = 0
		}
	}
}

// Or unions other into b in place; other must not be longer than b unless b
// is grown by the caller.
func (b *Bitset) Or(other Bitset) {
	b.grow(len(other) - 1)
	for i, w := range other {
		(*b)[i] |= w
	}
}

// Any reports whether any bit is set.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// Same reports whether b and other are one non-empty slice: the same
// backing words at the same length, so a write through either shows in
// both. Equal contents in separate memory are not the same.
func (b Bitset) Same(other Bitset) bool {
	return len(b) > 0 && len(b) == len(other) && &b[0] == &other[0]
}

// ForEach calls fn with the index of every set bit, in increasing order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			fn(wi*64 + i)
			w &= w - 1
		}
	}
}

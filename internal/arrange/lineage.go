package arrange

import (
	"slices"
	"unsafe"

	"telegraphcq/internal/tuple"
)

// lineages interns the lineage bitmaps of an arrangement's rows: a row
// keeps an id, and each distinct bitmap is held once. A bitmap the writer
// declares borrowed (Options.Borrowed) is held itself and found again by
// identity; any other is copied, and found again by content, so a writer
// may recycle its own bitmap the moment Insert returns. Rows arrive in runs
// of one lineage, so the last id interned is checked first. The table grows
// with the distinct lineages a writer stamps — query changes, not rows — and
// goes with the arrangement.
type lineages struct {
	sets   []tuple.Bitset    // by id; id 0 is the nil lineage
	copied []bool            // whether sets[id] is the arrangement's own copy
	byPtr  map[*uint64]int32 // a borrowed bitmap's first word → its id
	byHash map[uint64]int32  // a copy's content hash → its id
	last   int32
}

func (l *lineages) init() {
	l.sets, l.copied = []tuple.Bitset{nil}, []bool{false}
	l.byPtr, l.byHash = make(map[*uint64]int32), make(map[uint64]int32)
}

// intern returns the id of b, adding it when it is new.
func (l *lineages) intern(b tuple.Bitset, borrowed func(tuple.Bitset) bool) int32 {
	if b == nil {
		return 0
	}
	if len(b) > 0 && borrowed != nil && borrowed(b) {
		if b.Same(l.sets[l.last]) {
			return l.last
		}
		if id, ok := l.byPtr[&b[0]]; ok && b.Same(l.sets[id]) {
			l.last = id
			return id
		}
		id := l.add(b, false)
		l.byPtr[&b[0]] = id
		return id
	}
	if l.copied[l.last] && slices.Equal(l.sets[l.last], b) {
		return l.last
	}
	h := hashBits(b)
	if id, ok := l.byHash[h]; ok && slices.Equal(l.sets[id], b) {
		l.last = id
		return id
	}
	id := l.add(b.Clone(), true)
	l.byHash[h] = id
	return id
}

func (l *lineages) add(b tuple.Bitset, copied bool) int32 {
	l.sets = append(l.sets, b)
	l.copied = append(l.copied, copied)
	l.last = int32(len(l.sets) - 1)
	return l.last
}

// scrub clears mask's bits from every interned bitmap. Copies change
// content, so the content index is rebuilt over them.
func (l *lineages) scrub(mask tuple.Bitset) {
	clear(l.byHash)
	for id, b := range l.sets {
		for i := range mask {
			if i < len(b) {
				b[i] &^= mask[i]
			}
		}
		if l.copied[id] {
			l.byHash[hashBits(b)] = int32(id)
		}
	}
}

// bytes is the memory the table holds, its bitmaps included.
func (l *lineages) bytes() int64 {
	n := int64(cap(l.sets))*int64(unsafe.Sizeof(tuple.Bitset(nil))) + int64(cap(l.copied)) +
		mapEntryBytes*int64(len(l.byPtr)+len(l.byHash))
	for _, b := range l.sets {
		n += 8 * int64(cap(b))
	}
	return n
}

// hashBits hashes a bitmap's length and words (FNV-1a over words).
func hashBits(b tuple.Bitset) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(b))
	for _, w := range b {
		h = (h ^ w) * 1099511628211
	}
	return h
}

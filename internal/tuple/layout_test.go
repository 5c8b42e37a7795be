package tuple

import (
	"math/rand"
	"testing"
)

func layoutUnderTest() *Layout {
	a := NewSchema("a",
		Column{Name: "x", Kind: KindInt},
		Column{Name: "y", Kind: KindFloat})
	b := NewSchema("b",
		Column{Name: "k", Kind: KindInt},
		Column{Name: "s", Kind: KindString},
		Column{Name: "t", Kind: KindTime})
	c := NewSchema("c",
		Column{Name: "f", Kind: KindBool})
	return NewLayout(a, b, c)
}

func TestLayoutShape(t *testing.T) {
	l := layoutUnderTest()
	if l.Width() != 6 || l.Streams() != 3 {
		t.Fatalf("width=%d streams=%d, want 6/3", l.Width(), l.Streams())
	}
	wantOffsets := []int{0, 2, 5}
	for s, off := range wantOffsets {
		if l.Offsets[s] != off {
			t.Fatalf("offset[%d]=%d, want %d", s, l.Offsets[s], off)
		}
	}
	for col := 0; col < l.Width(); col++ {
		s := l.Owner(col)
		if s < 0 {
			t.Fatalf("Owner(%d) = -1", col)
		}
		if col < l.Offsets[s] || col >= l.Offsets[s]+l.Schemas[s].Arity() {
			t.Fatalf("Owner(%d) = %d outside its block", col, s)
		}
		if l.OwnerSet(col) != SingleSource(s) {
			t.Fatalf("OwnerSet(%d) mismatch", col)
		}
	}
	if l.Owner(6) != -1 || l.Owner(-1) != -1 || l.OwnerSet(6) != 0 {
		t.Fatalf("out-of-range Owner must be -1")
	}
	if l.Col("b.k") != 2 {
		t.Fatalf("Col(b.k) = %d, want 2", l.Col("b.k"))
	}
}

func randBase(rng *rand.Rand, s *Schema, seq int64) *Tuple {
	vals := make([]Value, s.Arity())
	for i, col := range s.Columns {
		switch col.Kind {
		case KindInt:
			vals[i] = Int(rng.Int63n(1000))
		case KindFloat:
			vals[i] = Float(rng.Float64())
		case KindString:
			vals[i] = String_(string(rune('a' + rng.Intn(26))))
		case KindBool:
			vals[i] = Bool(rng.Intn(2) == 0)
		case KindTime:
			vals[i] = Time(rng.Int63n(1 << 30))
		}
	}
	t := New(vals...)
	t.TS = rng.Int63n(1 << 20)
	t.Seq = seq
	return t
}

// TestLayoutWidenNarrowRoundTrip: Narrow(s, Widen(s, base)) must reproduce
// the base tuple's values, timestamps, and source bit for every stream and
// random contents.
func TestLayoutWidenNarrowRoundTrip(t *testing.T) {
	l := layoutUnderTest()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := rng.Intn(l.Streams())
		base := randBase(rng, l.Schemas[s], int64(trial))
		wide := l.Widen(s, base)
		if wide.Source != SingleSource(s) || wide.TS != base.TS || wide.Seq != base.Seq {
			t.Fatalf("trial %d: widen metadata mismatch", trial)
		}
		// Slots outside the stream's block stay NULL.
		for col := 0; col < l.Width(); col++ {
			if l.Owner(col) != s && wide.Vals[col].K != KindNull {
				t.Fatalf("trial %d: foreign slot %d not NULL", trial, col)
			}
		}
		back := l.Narrow(s, wide)
		if len(back.Vals) != len(base.Vals) {
			t.Fatalf("trial %d: narrow arity %d, want %d", trial, len(back.Vals), len(base.Vals))
		}
		for i := range base.Vals {
			if !Equal(back.Vals[i], base.Vals[i]) {
				t.Fatalf("trial %d: col %d = %v, want %v", trial, i, back.Vals[i], base.Vals[i])
			}
		}
		if back.TS != base.TS || back.Seq != base.Seq {
			t.Fatalf("trial %d: narrow timestamps mismatch", trial)
		}
	}
}

// TestLayoutMergeProperties: merging disjoint wide rows preserves each
// side's block verbatim, takes max timestamps, unions sources, and
// intersects lineage.
func TestLayoutMergeProperties(t *testing.T) {
	l := layoutUnderTest()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		sa := rng.Intn(l.Streams())
		sb := rng.Intn(l.Streams())
		if sa == sb {
			continue
		}
		ba := randBase(rng, l.Schemas[sa], int64(2*trial))
		bb := randBase(rng, l.Schemas[sb], int64(2*trial+1))
		wa := l.Widen(sa, ba)
		wb := l.Widen(sb, bb)
		wa.Queries = Bitset{}
		wb.Queries = Bitset{}
		for k := 0; k < 20; k++ {
			if rng.Intn(2) == 0 {
				wa.Queries.Set(rng.Intn(128))
			} else {
				wb.Queries.Set(rng.Intn(128))
			}
		}
		both := rng.Intn(128)
		wa.Queries.Set(both)
		wb.Queries.Set(both)

		m := l.Merge(wa, wb)
		if m.Source != SingleSource(sa).Union(SingleSource(sb)) {
			t.Fatalf("trial %d: merged source wrong", trial)
		}
		if m.TS != maxInt64(wa.TS, wb.TS) || m.Seq != maxInt64(wa.Seq, wb.Seq) {
			t.Fatalf("trial %d: merged timestamps not max", trial)
		}
		for i, v := range ba.Vals {
			if !Equal(m.Vals[l.Offsets[sa]+i], v) {
				t.Fatalf("trial %d: stream %d block corrupted", trial, sa)
			}
		}
		for i, v := range bb.Vals {
			if !Equal(m.Vals[l.Offsets[sb]+i], v) {
				t.Fatalf("trial %d: stream %d block corrupted", trial, sb)
			}
		}
		for i := 0; i < 128; i++ {
			want := wa.Queries.Test(i) && wb.Queries.Test(i)
			if m.Queries.Test(i) != want {
				t.Fatalf("trial %d: merged lineage bit %d = %v, want intersection %v",
					trial, i, m.Queries.Test(i), want)
			}
		}
		if !m.Queries.Test(both) {
			t.Fatalf("trial %d: shared lineage bit lost in merge", trial)
		}
	}
}

// TestLayoutMergeSharesOnlyTheSameSlice: Merge hands its output the inputs'
// lineage slice only when both inputs hold that very slice. Equal contents
// in separate memory, or a shorter view of the same words, get a fresh
// intersection, so writing the output's lineage never reaches an input's.
func TestLayoutMergeSharesOnlyTheSameSlice(t *testing.T) {
	l := layoutUnderTest()
	rng := rand.New(rand.NewSource(5))
	rows := func(qa, qb Bitset) (*Tuple, *Tuple) {
		a := l.Widen(0, randBase(rng, l.Schemas[0], 1))
		b := l.Widen(1, randBase(rng, l.Schemas[1], 2))
		a.Queries, b.Queries = qa, qb
		return a, b
	}
	shared := Bitset{0b1011, 0b1}
	if m := l.Merge(rows(shared, shared)); !m.Queries.Same(shared) {
		t.Fatalf("both inputs hold one slice: merged lineage %v is a copy", m.Queries)
	}
	for name, pair := range map[string][2]Bitset{
		"equal contents":  {shared, shared.Clone()},
		"shorter view":    {shared, shared[:1]},
		"one side only":   {shared, nil},
		"other side only": {nil, shared},
	} {
		a, b := rows(pair[0], pair[1])
		m := l.Merge(a, b)
		if m.Queries.Same(a.Queries) || m.Queries.Same(b.Queries) {
			t.Fatalf("%s: merged lineage shares an input's memory", name)
		}
		for i := range m.Queries {
			m.Queries[i] = 0
		}
		if shared[0] != 0b1011 || shared[1] != 0b1 {
			t.Fatalf("%s: a write to the merged lineage reached an input: %v", name, shared)
		}
	}
	if m := l.Merge(rows(nil, nil)); m.Queries != nil {
		t.Fatalf("lineage-free inputs merged into lineage %v", m.Queries)
	}
}

func TestLayoutThreeStreamMergeOverlapPanics(t *testing.T) {
	l := layoutUnderTest()
	rng := rand.New(rand.NewSource(3))
	// Two partial wide rows that both cover stream 1 overlap even though
	// they differ elsewhere.
	w1 := l.Merge(l.Widen(0, randBase(rng, l.Schemas[0], 1)),
		l.Widen(1, randBase(rng, l.Schemas[1], 2)))
	w2 := l.Merge(l.Widen(1, randBase(rng, l.Schemas[1], 3)),
		l.Widen(2, randBase(rng, l.Schemas[2], 4)))
	defer func() {
		if recover() == nil {
			t.Fatalf("Merge of overlapping rows did not panic")
		}
	}()
	l.Merge(w1, w2)
}

func TestLayoutEmpty(t *testing.T) {
	l := NewLayout()
	if l.Width() != 0 || l.Streams() != 0 {
		t.Fatalf("empty layout width=%d streams=%d", l.Width(), l.Streams())
	}
}

package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
		{Null, Int(0), -1},
		{Null, Null, 0},
		{Int(0), Null, 1},
		{Int(5), String_("a"), -1}, // numerics order before strings
		{Bool(true), Bool(false), 1},
		{Time(10), Time(20), -1},
		{Time(10), Int(10), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareIsATotalOrder checks Compare over values that include NaN,
// the infinities and both zeros: antisymmetric, transitive, and NaN equal
// to NaN and above every other number (below every string).
// unixNS is a unix-nanosecond timestamp, far past 2^53.
const unixNS = 1_700_000_000_000_000_000

func TestCompareIsATotalOrder(t *testing.T) {
	nan, otherNaN := math.NaN(), math.Float64frombits(0x7FF0000000000ABC)
	vals := []Value{
		Null, Float(math.Inf(-1)), Int(-3), Float(-0.5), Float(math.Copysign(0, -1)),
		Int(0), Time(0), Bool(true), Float(2.5), Int(1 << 60), Float(math.Inf(1)),
		Float(nan), Float(otherNaN), String_(""), String_("NaN"), String_("b"),
		// Past 2^53 float64 rounds integers: they compare as integers.
		Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Float(1 << 53), Float(1<<53 + 2),
		Time(unixNS), Time(unixNS + 1), Time(unixNS + 99), Float(unixNS),
		Int(math.MaxInt64), Int(math.MinInt64), Float(0x1p63), Float(-0x1p63), Float(-2.5), Int(-2),
	}
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Float(nan), Float(otherNaN), 0},
		{Float(nan), Float(math.Inf(1)), 1},
		{Int(math.MaxInt64), Float(nan), -1},
		{Float(nan), Null, 1},
		{Float(nan), String_(""), -1},
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Float(1 << 53), Int(1 << 53), 0},
		{Float(1<<53 + 2), Int(1<<53 + 1), 1},
		{Time(unixNS + 1), Time(unixNS), 1},
		{Time(unixNS), Float(unixNS), 0},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			for _, c := range vals {
				if ab <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestValueHashEqualConsistency(t *testing.T) {
	// Values that compare equal must hash equal (required by SteM probing).
	pairs := [][2]Value{
		{Int(3), Float(3.0)},
		{Int(0), Float(0)},
		{Time(7), Int(7)},
		{String_("x"), String_("x")},
		{Float(math.NaN()), Float(math.Float64frombits(0xFFF0000000000001))},
		{Int(1 << 53), Float(1 << 53)},
		{Time(unixNS), Float(unixNS)},
		{Int(math.MinInt64), Float(-0x1p63)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v vs %v", p[0], p[1])
		}
	}
	// An integer float64 rounds equals no float and hashes by its own bits,
	// so integers a rounding float64 would merge stay apart.
	for _, p := range [][2]Value{
		{Int(1<<53 + 1), Int(1 << 53)},
		{Time(unixNS + 1), Time(unixNS)},
		{Int(math.MaxInt64), Float(0x1p63)},
	} {
		if Equal(p[0], p[1]) || p[0].Hash() == p[1].Hash() {
			t.Errorf("%v and %v compare or hash as one value", p[0], p[1])
		}
	}
}

func TestValueHashIntConsistency(t *testing.T) {
	// Property: Int(v) and Float(float64(v)) hash identically for any v
	// that float64 represents exactly.
	f := func(v int32) bool {
		return Int(int64(v)).Hash() == Float(float64(v)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{String_("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null, "NULL"},
		{Time(9), "@9"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b.Any() {
		t.Error("empty bitset reports Any")
	}
	b.Set(3)
	b.Set(70)
	if !b.Test(3) || !b.Test(70) || b.Test(4) {
		t.Error("Set/Test mismatch")
	}
	if b.Count() != 2 {
		t.Errorf("Count = %d, want 2", b.Count())
	}
	b.Clear(3)
	if b.Test(3) {
		t.Error("Clear failed")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 1 || got[0] != 70 {
		t.Errorf("ForEach = %v, want [70]", got)
	}
}

func TestBitsetSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		var b Bitset
		b.SetAll(n)
		if b.Count() != n {
			t.Errorf("SetAll(%d).Count = %d", n, b.Count())
		}
		if b.Test(n) {
			t.Errorf("SetAll(%d) set bit %d", n, n)
		}
	}
}

func TestBitsetAndOr(t *testing.T) {
	var a, b Bitset
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(2)
	c := a.Clone()
	c.And(b)
	if c.Count() != 1 || !c.Test(100) {
		t.Errorf("And: got %v", c)
	}
	d := a.Clone()
	d.Or(b)
	if d.Count() != 3 {
		t.Errorf("Or: count = %d, want 3", d.Count())
	}
}

func TestBitsetAndShorterOperand(t *testing.T) {
	var a, b Bitset
	a.Set(200)
	b.Set(1)
	a.And(b) // b is shorter; high words of a must clear
	if a.Any() {
		t.Error("And with shorter operand left stale bits")
	}
}

func TestBitsetQuickAndIsIntersection(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Bitset
		in := map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
			in[int(y)] = true
		}
		c := a.Clone()
		c.And(b)
		for _, x := range xs {
			want := in[int(x)]
			if c.Test(int(x)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema("stocks",
		Column{"timestamp", KindTime},
		Column{"symbol", KindString},
		Column{"price", KindFloat},
	)
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if i := s.ColumnIndex("symbol"); i != 1 {
		t.Errorf("symbol index = %d", i)
	}
	if i := s.ColumnIndex("stocks.price"); i != 2 {
		t.Errorf("qualified price index = %d", i)
	}
	if i := s.ColumnIndex("volume"); i != -1 {
		t.Errorf("missing column index = %d", i)
	}
}

func TestSchemaConcatQualifies(t *testing.T) {
	a := NewSchema("a", Column{"x", KindInt}, Column{"y", KindInt})
	b := NewSchema("b", Column{"x", KindInt})
	c := a.Concat(b)
	if c.Arity() != 3 {
		t.Fatalf("arity = %d", c.Arity())
	}
	if i := c.ColumnIndex("a.x"); i != 0 {
		t.Errorf("a.x = %d", i)
	}
	if i := c.ColumnIndex("b.x"); i != 2 {
		t.Errorf("b.x = %d", i)
	}
	// Bare "x" is ambiguous.
	if i := c.ColumnIndex("x"); i != -1 {
		t.Errorf("ambiguous x = %d, want -1", i)
	}
	// Bare "y" is unambiguous.
	if i := c.ColumnIndex("y"); i != 1 {
		t.Errorf("y = %d, want 1", i)
	}
}

func testLayout() *Layout {
	s := NewSchema("s", Column{"a", KindInt}, Column{"b", KindInt})
	r := NewSchema("r", Column{"c", KindInt})
	return NewLayout(s, r)
}

func TestLayoutWidenNarrow(t *testing.T) {
	l := testLayout()
	if l.Width() != 3 {
		t.Fatalf("width = %d", l.Width())
	}
	base := New(Int(1), Int(2))
	base.TS = 9
	base.Seq = 4
	w := l.Widen(0, base)
	if w.Source != SingleSource(0) {
		t.Errorf("source = %b", w.Source)
	}
	if !Equal(w.Vals[0], Int(1)) || !Equal(w.Vals[1], Int(2)) || !w.Vals[2].IsNull() {
		t.Errorf("widen vals = %v", w.Vals)
	}
	n := l.Narrow(0, w)
	if len(n.Vals) != 2 || !Equal(n.Vals[0], Int(1)) {
		t.Errorf("narrow vals = %v", n.Vals)
	}
}

func TestLayoutMerge(t *testing.T) {
	l := testLayout()
	s := l.Widen(0, New(Int(1), Int(2)))
	s.TS = 5
	r := l.Widen(1, New(Int(3)))
	r.TS = 8
	m := l.Merge(s, r)
	if m.Source != SingleSource(0).Union(SingleSource(1)) {
		t.Errorf("merge source = %b", m.Source)
	}
	if !Equal(m.Vals[0], Int(1)) || !Equal(m.Vals[2], Int(3)) {
		t.Errorf("merge vals = %v", m.Vals)
	}
	if m.TS != 8 {
		t.Errorf("merge TS = %d, want 8 (max)", m.TS)
	}
}

func TestLayoutMergeLineageIntersects(t *testing.T) {
	l := testLayout()
	s := l.Widen(0, New(Int(1), Int(2)))
	r := l.Widen(1, New(Int(3)))
	s.Queries = NewBitset(4)
	s.Queries.Set(0)
	s.Queries.Set(1)
	r.Queries = NewBitset(4)
	r.Queries.Set(1)
	r.Queries.Set(2)
	m := l.Merge(s, r)
	if !m.Queries.Test(1) || m.Queries.Test(0) || m.Queries.Test(2) {
		t.Errorf("lineage after merge = %v", m.Queries)
	}
}

func TestLayoutMergeOverlapPanics(t *testing.T) {
	l := testLayout()
	s := l.Widen(0, New(Int(1), Int(2)))
	defer func() {
		if recover() == nil {
			t.Error("Merge of overlapping rows did not panic")
		}
	}()
	l.Merge(s, s)
}

func TestLayoutOwner(t *testing.T) {
	l := testLayout()
	for col, want := range map[int]int{0: 0, 1: 0, 2: 1} {
		if got := l.Owner(col); got != want {
			t.Errorf("Owner(%d) = %d, want %d", col, got, want)
		}
	}
	if got := l.Owner(3); got != -1 {
		t.Errorf("Owner(3) = %d, want -1", got)
	}
}

func TestTupleConcat(t *testing.T) {
	a := New(Int(1))
	a.Source = SingleSource(0)
	a.TS = 3
	b := New(Int(2))
	b.Source = SingleSource(1)
	b.TS = 7
	c := a.Concat(b)
	if len(c.Vals) != 2 || c.TS != 7 || c.Source != 3 {
		t.Errorf("concat = %+v", c)
	}
}

func TestTupleClone(t *testing.T) {
	a := New(Int(1), Int(2))
	a.Queries = NewBitset(2)
	a.Queries.Set(1)
	b := a.Clone()
	b.Vals[0] = Int(9)
	b.Queries.Clear(1)
	if !Equal(a.Vals[0], Int(1)) || !a.Queries.Test(1) {
		t.Error("Clone aliases its source")
	}
}

func TestSourceSet(t *testing.T) {
	s := SingleSource(0).Union(SingleSource(2))
	if !s.Contains(SingleSource(2)) || s.Contains(SingleSource(1)) {
		t.Error("Contains misbehaves")
	}
	if !s.Overlaps(SingleSource(0)) || s.Overlaps(SingleSource(3)) {
		t.Error("Overlaps misbehaves")
	}
}

func TestValueAccessors(t *testing.T) {
	if Bool(true).AsBool() != true || Bool(false).AsBool() != false {
		t.Error("AsBool")
	}
	if Int(1).AsBool() {
		t.Error("AsBool on int should be false")
	}
	if String_("hi").AsString() != "hi" {
		t.Error("AsString")
	}
	if Null.AsInt() != 0 || Null.AsFloat() != 0 {
		t.Error("null coercions")
	}
	if String_("x").AsInt() != 0 {
		t.Error("string AsInt")
	}
	if Float(2.9).AsInt() != 2 {
		t.Error("float AsInt truncation")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "STRING", KindBool: "BOOL", KindTime: "TIME",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema("s", Column{"a", KindInt}, Column{"b", KindString})
	if got := s.String(); got != "s(a INT, b STRING)" {
		t.Errorf("schema = %q", got)
	}
}

func TestMustColumnIndex(t *testing.T) {
	s := NewSchema("s", Column{"a", KindInt})
	if s.MustColumnIndex("a") != 0 {
		t.Error("must index")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing column did not panic")
		}
	}()
	s.MustColumnIndex("zzz")
}

func TestTupleString(t *testing.T) {
	tp := New(Int(1), String_("x"))
	if tp.String() != "(1, x)" {
		t.Errorf("tuple = %q", tp.String())
	}
}

func TestLayoutColAndOwnerSet(t *testing.T) {
	l := testLayout()
	if l.Streams() != 2 {
		t.Errorf("streams = %d", l.Streams())
	}
	if l.Col("s.a") != 0 || l.Col("r.c") != 2 || l.Col("zzz") != -1 {
		t.Error("Col resolution")
	}
	if l.OwnerSet(2) != SingleSource(1) || l.OwnerSet(99) != 0 {
		t.Error("OwnerSet")
	}
}

func TestConcatLineageOneSided(t *testing.T) {
	a := New(Int(1))
	a.Source = SingleSource(0)
	a.Queries = NewBitset(2)
	a.Queries.Set(1)
	b := New(Int(2))
	b.Source = SingleSource(1)
	c := a.Concat(b)
	if !c.Queries.Test(1) {
		t.Error("one-sided lineage lost in Concat")
	}
	d := b.Concat(a)
	if !d.Queries.Test(1) {
		t.Error("other-side lineage lost in Concat")
	}
}

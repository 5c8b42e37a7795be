package tuple

import (
	"fmt"
	"sync"
	"testing"
)

func TestPoolGetZeroesRecycledMemory(t *testing.T) {
	p := NewPool()
	a := p.Get(3)
	a.Vals[0] = Int(7)
	a.Vals[2] = String_("x")
	a.TS, a.Seq, a.Source, a.Done = 9, 9, 3, 0xff
	a.Queries = NewBitset(4)
	a.Queries.Set(1)
	p.Put(a)
	b := p.Get(3)
	for i, v := range b.Vals {
		if !v.IsNull() {
			t.Errorf("recycled Vals[%d] = %v, want NULL", i, v)
		}
	}
	if b.TS != 0 || b.Seq != 0 || b.Source != 0 || b.Done != 0 || b.Queries != nil {
		t.Errorf("recycled tuple not zeroed: %+v", b)
	}
}

func TestPoolWidthChanges(t *testing.T) {
	p := NewPool()
	p.Put(p.Get(8))
	small := p.Get(2)
	if len(small.Vals) != 2 {
		t.Fatalf("len = %d, want 2", len(small.Vals))
	}
	p.Put(small)
	big := p.Get(16)
	if len(big.Vals) != 16 {
		t.Fatalf("len = %d, want 16", len(big.Vals))
	}
	for i, v := range big.Vals {
		if !v.IsNull() {
			t.Errorf("grown Vals[%d] = %v, want NULL", i, v)
		}
	}
}

func TestPoolRejectsOversized(t *testing.T) {
	p := NewPool()
	huge := &Tuple{Vals: make([]Value, maxPooledWidth+1)}
	p.Put(huge)
	if st := p.Stats(); st.Drops != 1 || st.Puts != 0 {
		t.Errorf("stats = %+v, want 1 drop, 0 puts", st)
	}
	p.Put(nil)
	if st := p.Stats(); st.Drops != 2 {
		t.Errorf("nil Put not counted as drop: %+v", p.Stats())
	}
}

func TestCloneUsingMatchesClone(t *testing.T) {
	p := NewPool()
	src := New(Int(1), String_("a"), Float(2.5))
	src.TS, src.Seq, src.Source, src.Done = 10, 11, 2, 8
	src.Queries = NewBitset(3)
	src.Queries.Set(2)
	for _, c := range []*Tuple{src.Clone(), src.CloneUsing(p), src.CloneUsing(nil)} {
		if c.TS != 10 || c.Seq != 11 || c.Source != 2 || c.Done != 8 {
			t.Errorf("clone header = %+v", c)
		}
		for i := range src.Vals {
			if !Equal(c.Vals[i], src.Vals[i]) {
				t.Errorf("clone val %d = %v", i, c.Vals[i])
			}
		}
		if c.Queries == nil || !c.Queries.Test(2) {
			t.Error("clone lost lineage")
		}
		// Deep copy: mutating the clone must not touch the source.
		c.Vals[0] = Int(99)
		c.Queries.Set(0)
		if src.Vals[0].AsInt() != 1 || src.Queries.Test(0) {
			t.Error("clone aliases source")
		}
	}
}

func TestWidenUsingMatchesWiden(t *testing.T) {
	s0 := NewSchema("a", Column{Name: "x", Kind: KindInt})
	s1 := NewSchema("b", Column{Name: "y", Kind: KindInt}, Column{Name: "z", Kind: KindString})
	l := NewLayout(s0, s1)
	base := New(Int(5), String_("q"))
	base.TS, base.Seq = 3, 4
	p := NewPool()
	// Seed the pool with a dirty tuple of the wide width to prove widening
	// clears foreign slots.
	dirty := p.Get(l.Width())
	for i := range dirty.Vals {
		dirty.Vals[i] = Int(-1)
	}
	p.Put(dirty)

	want := l.Widen(1, base)
	got := l.WidenUsing(p, 1, base)
	if got.TS != want.TS || got.Seq != want.Seq || got.Source != want.Source {
		t.Errorf("header got %+v want %+v", got, want)
	}
	for i := range want.Vals {
		if !Equal(got.Vals[i], want.Vals[i]) {
			t.Errorf("wide val %d = %v, want %v", i, got.Vals[i], want.Vals[i])
		}
	}
	if !got.Vals[0].IsNull() {
		t.Error("foreign stream slot not cleared on recycled widen")
	}
}

// TestCloneManyMatchesClone: a run cloned in one take is each row's Clone
// (values, stamps, span, a lineage copy of its own), over recycled rows of
// other widths, and counts one get per row and one hit per row whose
// recycled values were wide enough.
func TestCloneManyMatchesClone(t *testing.T) {
	p := NewPool()
	// Two recycled rows, of four values and of eight: too few for the
	// first row, enough for the second. The third row's is new.
	narrow, wide := p.Get(1), p.Get(8)
	for _, dirty := range []*Tuple{narrow, wide} {
		for i := range dirty.Vals {
			dirty.Vals[i] = Int(-1)
		}
		p.Put(dirty)
	}
	src := []*Tuple{New(Int(1), String_("a"), Int(2), Int(3), Int(4), Int(5), Int(6), Int(7), Int(8)),
		New(Float(2.5)), New(Int(3), Int(4), Int(5))}
	for i, s := range src {
		s.TS, s.Seq, s.Source, s.Done = int64(10+i), int64(20+i), SingleSource(i), 1
	}
	src[1].Queries = NewBitset(3)
	src[1].Queries.Set(2)
	before := p.Stats()
	dst := make([]*Tuple, len(src)+1)
	p.CloneMany(dst, src)
	if st := p.Stats(); st.Gets-before.Gets != 3 || st.Hits-before.Hits != 1 {
		t.Errorf("counters moved by %d gets, %d hits; want 3, 1", st.Gets-before.Gets, st.Hits-before.Hits)
	}
	if dst[len(src)] != nil {
		t.Error("CloneMany wrote past len(src)")
	}
	for i, s := range src {
		c := dst[i]
		if c.TS != s.TS || c.Seq != s.Seq || c.Source != s.Source || c.Done != s.Done || len(c.Vals) != len(s.Vals) {
			t.Fatalf("clone %d = %+v, want %+v", i, c, s)
		}
		for j := range s.Vals {
			if !Equal(c.Vals[j], s.Vals[j]) {
				t.Errorf("clone %d val %d = %v, want %v", i, j, c.Vals[j], s.Vals[j])
			}
		}
		if (s.Queries == nil) != (c.Queries == nil) {
			t.Errorf("clone %d lineage = %v, want %v", i, c.Queries, s.Queries)
		}
	}
	if dst[1].Queries.Set(0); src[1].Queries.Test(0) {
		t.Error("a clone shares its source's lineage bitmap")
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tp := p.Get(4)
				tp.Vals[0] = Int(int64(i))
				p.Put(tp)
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Gets != 16000 || st.Puts != 16000 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMergeUsingMatchesMerge: a merge drawn from the pool is Merge's row —
// values, stamps, span and lineage, a shared bitmap passed on as itself —
// written over whatever the recycled row held.
func TestMergeUsingMatchesMerge(t *testing.T) {
	l := NewLayout(NewSchema("S", Column{Name: "k", Kind: KindInt}),
		NewSchema("R", Column{Name: "k", Kind: KindInt}, Column{Name: "w", Kind: KindString}))
	shared := NewBitset(70)
	shared.Set(66)
	own := NewBitset(70)
	own.Set(66)
	own.Set(3)
	for _, lin := range [][2]Bitset{{nil, nil}, {shared, shared}, {own, shared}, {nil, own}} {
		a := l.Widen(0, &Tuple{Vals: []Value{Int(1)}, TS: 5, Seq: 9, Queries: lin[0]})
		b := l.Widen(1, &Tuple{Vals: []Value{Int(1), String_("w")}, TS: 7, Seq: 2, Queries: lin[1]})
		a.Queries, b.Queries = lin[0], lin[1]
		p := NewPool()
		stale := p.Get(l.Width())
		stale.Vals[0], stale.TS, stale.Done = String_("old"), 99, 5
		p.Put(stale)
		want := l.Merge(a, b)
		got := l.MergeUsing(p, a, b)
		if p.Stats().Hits != 1 {
			t.Fatalf("MergeUsing did not draw the pooled row (hits %d)", p.Stats().Hits)
		}
		if got.TS != want.TS || got.Seq != want.Seq || got.Source != want.Source || got.Done != 0 ||
			fmt.Sprint(got.Vals) != fmt.Sprint(want.Vals) || fmt.Sprint(got.Queries) != fmt.Sprint(want.Queries) ||
			got.Queries.Same(shared) != want.Queries.Same(shared) || (got.Queries == nil) != (want.Queries == nil) {
			t.Fatalf("lineage %v: MergeUsing %+v, Merge %+v", lin, got, want)
		}
	}
	if m := l.MergeUsing(nil, l.Widen(0, New(Int(1))), l.Widen(1, New(Int(2), Null))); m.Vals[1].I != 2 {
		t.Fatalf("MergeUsing without a pool = %v", m.Vals)
	}
}

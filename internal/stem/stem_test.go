package stem

import (
	"fmt"
	"testing"
	"testing/quick"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// twoStreamLayout builds S(k, v) and T(k, w).
func twoStreamLayout() *tuple.Layout {
	s := tuple.NewSchema("S",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt})
	tt := tuple.NewSchema("T",
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "w", Kind: tuple.KindInt})
	return tuple.NewLayout(s, tt)
}

func widen(l *tuple.Layout, stream int, ts int64, vals ...tuple.Value) *tuple.Tuple {
	base := tuple.New(vals...)
	base.TS = ts
	base.Seq = ts
	return l.Widen(stream, base)
}

func TestBuildProbeIndexed(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l, WithIndex(0)) // index S.k (wide col 0)
	for i := int64(0); i < 10; i++ {
		if err := st.Build(widen(l, 0, i, tuple.Int(i%3), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Probe with a T tuple, k=1: T.k is wide col 2.
	probe := widen(l, 1, 100, tuple.Int(1), tuple.Int(7))
	preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}}
	matches := st.Probe(probe, 2, preds)
	if len(matches) != 3 { // S rows with k=1: i = 1, 4, 7
		t.Fatalf("matches = %d, want 3", len(matches))
	}
	for _, m := range matches {
		if m.Source != 3 {
			t.Errorf("match source = %b", m.Source)
		}
		if !tuple.Equal(m.Vals[0], tuple.Int(1)) || !tuple.Equal(m.Vals[2], tuple.Int(1)) {
			t.Errorf("match vals = %v", m.Vals)
		}
	}
}

func TestProbeUnindexedScan(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l) // no index
	for i := int64(0); i < 10; i++ {
		st.Build(widen(l, 0, i, tuple.Int(i), tuple.Int(i)))
	}
	// Non-equality predicate: T.k > S.k.
	probe := widen(l, 1, 100, tuple.Int(4), tuple.Int(0))
	preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Gt, RightCol: 0}}
	matches := st.Probe(probe, -1, preds)
	if len(matches) != 4 { // S.k in {0,1,2,3}
		t.Fatalf("matches = %d, want 4", len(matches))
	}
}

func TestBuildRejectsWrongSpan(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l)
	if err := st.Build(widen(l, 1, 0, tuple.Int(1), tuple.Int(2))); err == nil {
		t.Error("building a T tuple into SteM_S should fail")
	}
}

func TestAccepts(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l)
	sTup := widen(l, 0, 0, tuple.Int(1), tuple.Int(2))
	tTup := widen(l, 1, 0, tuple.Int(1), tuple.Int(2))
	if !st.Accepts(sTup) || st.Accepts(tTup) {
		t.Error("Accepts misbehaves")
	}
}

func TestWindowEviction(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l,
		WithIndex(0), WithWindowEviction(window.Physical))
	for i := int64(0); i < 20; i++ {
		st.Build(widen(l, 0, i, tuple.Int(i), tuple.Int(i)))
	}
	if n := st.Evict(10); n != 10 {
		t.Fatalf("evicted %d, want 10", n)
	}
	if st.Size() != 10 {
		t.Errorf("size = %d", st.Size())
	}
	// Index must be rebuilt: probing for an evicted key finds nothing.
	probe := widen(l, 1, 100, tuple.Int(5), tuple.Int(0))
	preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}}
	if m := st.Probe(probe, 2, preds); len(m) != 0 {
		t.Errorf("probe for evicted key found %d matches", len(m))
	}
	// Surviving keys still probe fine.
	probe = widen(l, 1, 100, tuple.Int(15), tuple.Int(0))
	if m := st.Probe(probe, 2, preds); len(m) != 1 {
		t.Errorf("probe for live key found %d matches", len(m))
	}
}

func TestStats(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l, WithIndex(0))
	st.Build(widen(l, 0, 0, tuple.Int(1), tuple.Int(2)))
	probe := widen(l, 1, 0, tuple.Int(1), tuple.Int(0))
	st.Probe(probe, 2, []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}})
	s := st.Stats()
	if s.Builds != 1 || s.Probes != 1 || s.Matches != 1 || s.Size != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMatchLineageIntersection(t *testing.T) {
	l := twoStreamLayout()
	st := New("S", tuple.SingleSource(0), l, WithIndex(0))
	b := widen(l, 0, 0, tuple.Int(1), tuple.Int(2))
	b.Queries = tuple.NewBitset(3)
	b.Queries.Set(0)
	b.Queries.Set(1)
	st.Build(b)
	p := widen(l, 1, 0, tuple.Int(1), tuple.Int(9))
	p.Queries = tuple.NewBitset(3)
	p.Queries.Set(1)
	p.Queries.Set(2)
	m := st.Probe(p, 2, []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}})
	if len(m) != 1 {
		t.Fatalf("matches = %d", len(m))
	}
	if !m[0].Queries.Test(1) || m[0].Queries.Test(0) || m[0].Queries.Test(2) {
		t.Errorf("match lineage = %v", m[0].Queries)
	}
}

// TestProbeCompletenessQuick is the SteM's load-bearing property: for any
// build set and probe, Probe returns exactly the brute-force equijoin
// matches — whether it uses the hash index or a verified scan.
func TestProbeCompletenessQuick(t *testing.T) {
	f := func(buildKeys []uint8, probeKey uint8, indexed bool) bool {
		l := twoStreamLayout()
		var st *SteM
		if indexed {
			st = New("S", tuple.SingleSource(0), l, WithIndex(0))
		} else {
			st = New("S", tuple.SingleSource(0), l)
		}
		want := 0
		for i, k := range buildKeys {
			key := int64(k % 16)
			if err := st.Build(widen(l, 0, int64(i), tuple.Int(key), tuple.Int(int64(i)))); err != nil {
				return false
			}
			if key == int64(probeKey%16) {
				want++
			}
		}
		probe := widen(l, 1, 1000, tuple.Int(int64(probeKey%16)), tuple.Int(0))
		preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}}
		pk := -1
		if indexed {
			pk = 2
		}
		return len(st.Probe(probe, pk, preds)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEvictionWatermarkQuick: after Evict(w), exactly the tuples with
// time >= w remain probeable.
func TestEvictionWatermarkQuick(t *testing.T) {
	f := func(times []uint8, wRaw uint8) bool {
		w := int64(wRaw % 32)
		l := twoStreamLayout()
		st := New("S", tuple.SingleSource(0), l,
			WithIndex(0), WithWindowEviction(window.Physical))
		want := 0
		for _, tm := range times {
			ts := int64(tm % 32)
			st.Build(widen(l, 0, ts, tuple.Int(1), tuple.Int(ts)))
			if ts >= w {
				want++
			}
		}
		st.Evict(w)
		probe := widen(l, 1, 100, tuple.Int(1), tuple.Int(0))
		preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}}
		return len(st.Probe(probe, 2, preds)) == want && st.Size() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEvictThenProbeKeepsSurvivorOrder: after Evict a private SteM's probe
// returns exactly the survivors, in the order the store promises — time
// order (arrival order among ties) when windowed, insertion order otherwise
// — whether the probe goes through the hash index or a scan.
func TestEvictThenProbeKeepsSurvivorOrder(t *testing.T) {
	l := twoStreamLayout()
	preds := []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}}
	probe := widen(l, 1, 100, tuple.Int(1), tuple.Int(0))
	// Arrival order, as (time, v): out of order and with a tie at time 7.
	arrivals := [][2]int64{{5, 0}, {2, 1}, {7, 2}, {3, 3}, {7, 4}, {9, 5}, {1, 6}}
	for _, windowed := range []bool{true, false} {
		for _, indexed := range []bool{true, false} {
			t.Run(fmt.Sprintf("windowed=%v/indexed=%v", windowed, indexed), func(t *testing.T) {
				var opts []Option
				probeKey := -1
				if indexed {
					opts, probeKey = append(opts, WithIndex(0)), 2
				}
				if windowed {
					opts = append(opts, WithWindowEviction(window.Physical))
				}
				st := New("S", tuple.SingleSource(0), l, opts...)
				for _, a := range arrivals {
					if err := st.Build(widen(l, 0, a[0], tuple.Int(1), tuple.Int(a[1]))); err != nil {
						t.Fatal(err)
					}
				}
				// Time order of the rows at or past the watermark; an
				// insertion-ordered SteM evicts nothing.
				want, evicted := []int64{0, 2, 4, 5}, 3
				if !windowed {
					want, evicted = []int64{0, 1, 2, 3, 4, 5, 6}, 0
				}
				if n := st.Evict(4); n != evicted {
					t.Fatalf("Evict(4) = %d, want %d", n, evicted)
				}
				var got []int64
				for _, m := range st.Probe(probe, probeKey, preds) {
					got = append(got, m.Vals[1].I)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("survivors probed as v=%v, want %v", got, want)
				}
				if s := st.Stats(); s.Size != len(want) || s.Evicted != int64(evicted) {
					t.Fatalf("stats = %+v, want size %d evicted %d", s, len(want), evicted)
				}
			})
		}
	}
}

// TestBuildAllocatesLikeBuildBatch: a single-row Build allocates no slice of
// its own, over a private store or a shared one — n Builds cost what one
// BuildBatch of the same n rows costs, and nothing at all once an unindexed
// store has grown to hold them (Evict parks no copy either).
func TestBuildAllocatesLikeBuildBatch(t *testing.T) {
	l := twoStreamLayout()
	rows := make([]*tuple.Tuple, 64)
	for i := range rows {
		rows[i] = widen(l, 0, int64(i), tuple.Int(int64(i%8)), tuple.Int(int64(i)))
	}
	for _, shared := range []bool{false, true} {
		for _, indexed := range []bool{false, true} {
			keyCol := -1
			opts := []Option{WithWindowEviction(window.Physical)}
			if indexed {
				keyCol, opts = 0, append(opts, WithIndex(0))
			}
			if shared {
				opts = append(opts, WithStore(arrange.New(arrange.Options{
					Name: "S", KeyCol: keyCol, Windowed: true, TimeKind: window.Physical})))
			}
			st := New("S", tuple.SingleSource(0), l, opts...)
			single := testing.AllocsPerRun(20, func() {
				for _, r := range rows {
					st.Build(r)
				}
				st.Evict(1 << 40)
			})
			batch := testing.AllocsPerRun(20, func() {
				st.BuildBatch(rows)
				st.Evict(1 << 40)
			})
			if single != batch || (!indexed && single != 0) {
				t.Errorf("shared=%v indexed=%v: %d Builds allocate %.0f, one BuildBatch %.0f",
					shared, indexed, len(rows), single, batch)
			}
		}
	}
}

// TestSharedAndPrivateFronts: New owns its store and reports private;
// WithStore reports shared, stores into the arrangement it was handed, and a
// second front over the same arrangement probes what the first built.
func TestSharedAndPrivateFronts(t *testing.T) {
	l := twoStreamLayout()
	if New("S", tuple.SingleSource(0), l, WithIndex(0)).Shared() {
		t.Fatal("a SteM that owns its store reports Shared")
	}
	arr := arrange.New(arrange.Options{Name: "S", KeyCol: 0, Windowed: true, TimeKind: window.Physical})
	mk := func() *SteM {
		return New("S", tuple.SingleSource(0), l, WithIndex(0),
			WithWindowEviction(window.Physical), WithStore(arr))
	}
	builder, reader := mk(), mk()
	if !builder.Shared() || builder.Name() != "S" {
		t.Fatalf("WithStore front: Shared=%v Name=%q", builder.Shared(), builder.Name())
	}
	if err := builder.BuildBatch([]*tuple.Tuple{
		widen(l, 0, 1, tuple.Int(1), tuple.Int(10)),
		widen(l, 0, 2, tuple.Int(2), tuple.Int(20)),
	}); err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 2 || reader.Size() != 2 {
		t.Fatalf("arrangement holds %d rows, second front sees %d, want 2/2", arr.Len(), reader.Size())
	}
	probe := widen(l, 1, 100, tuple.Int(2), tuple.Int(0))
	m := reader.Probe(probe, 2, []expr.JoinPredicate{{LeftCol: 2, Op: expr.Eq, RightCol: 0}})
	if len(m) != 1 || m[0].Vals[1].I != 20 {
		t.Fatalf("second front probed %v, want the row the first built", m)
	}
	// Counters are per front.
	if b, r := builder.Stats(), reader.Stats(); b.Builds != 2 || b.Probes != 0 || r.Builds != 0 || r.Probes != 1 || r.Matches != 1 {
		t.Fatalf("front stats: builder %+v reader %+v", b, r)
	}
}

// TestBuildKeepsValuesNotRows: a SteM over the second stream stores that
// stream's block of each build row, encoded, so the caller may rewrite its
// rows the moment BuildBatch returns; with a recycler set, matches are
// drawn from the pool.
func TestBuildKeepsValuesNotRows(t *testing.T) {
	l := twoStreamLayout()
	st := New("T", tuple.SingleSource(1), l, WithIndex(2)) // index T.k (wide col 2)
	rows := []*tuple.Tuple{
		widen(l, 1, 1, tuple.Int(1), tuple.Int(10)),
		widen(l, 1, 2, tuple.Int(2), tuple.Int(20)),
	}
	if err := st.BuildBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		r.Vals[2], r.Vals[3], r.TS = tuple.Int(2), tuple.Int(99), 50
	}
	pool := tuple.NewPool()
	st.SetRecycler(pool)
	probe := widen(l, 0, 5, tuple.Int(2), tuple.Int(0))
	m := st.Probe(probe, 0, []expr.JoinPredicate{{LeftCol: 0, Op: expr.Eq, RightCol: 2}})
	if len(m) != 1 || m[0].Vals[2].I != 2 || m[0].Vals[3].I != 20 || m[0].TS != 5 || m[0].Source != 3 {
		t.Fatalf("probe matched %v, want the one T row built with k=2, w=20", m)
	}
	if g := pool.Stats().Gets; g != 1 {
		t.Fatalf("%d pool gets, want the match drawn from the pool", g)
	}
}

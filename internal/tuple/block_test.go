package tuple

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMaskResetAndBits(t *testing.T) {
	var m Mask
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		m.Reset(n)
		if m.Len() != n {
			t.Fatalf("Reset(%d): Len = %d", n, m.Len())
		}
		if !m.None() || m.Count() != 0 {
			t.Fatalf("Reset(%d): mask not empty", n)
		}
		m.ResetSet(n)
		if m.Count() != n || (n > 0 && !m.All()) {
			t.Fatalf("ResetSet(%d): Count = %d", n, m.Count())
		}
	}
}

// TestMaskProperties checks mask bit operations against a reference
// boolean slice under random operation sequences.
func TestMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		var m Mask
		ref := make([]bool, n)
		if rng.Intn(2) == 0 {
			m.Reset(n)
		} else {
			m.ResetSet(n)
			for i := range ref {
				ref[i] = true
			}
		}
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				m.Set(i)
				ref[i] = true
			} else {
				m.Clear(i)
				ref[i] = false
			}
		}
		count := 0
		for i, want := range ref {
			if m.Test(i) != want {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, m.Test(i), want)
			}
			if want {
				count++
			}
		}
		if m.Count() != count {
			t.Fatalf("trial %d: Count = %d, want %d", trial, m.Count(), count)
		}
		var visited []int
		m.ForEach(func(i int) { visited = append(visited, i) })
		if len(visited) != count {
			t.Fatalf("trial %d: ForEach visited %d, want %d", trial, len(visited), count)
		}
		for k := 1; k < len(visited); k++ {
			if visited[k] <= visited[k-1] {
				t.Fatalf("trial %d: ForEach order not ascending", trial)
			}
		}
	}
}

// randRow builds a deterministic pseudo-random row for width w.
func randRow(rng *rand.Rand, w int) ([]Value, int64, int64, SourceSet) {
	vals := make([]Value, w)
	for j := range vals {
		switch rng.Intn(3) {
		case 0:
			vals[j] = Int(rng.Int63n(1000))
		case 1:
			vals[j] = Float(rng.Float64() * 100)
		default:
			vals[j] = String_(fmt.Sprintf("s%d", rng.Intn(50)))
		}
	}
	return vals, rng.Int63n(1 << 30), rng.Int63n(1 << 30), SourceSet(rng.Intn(4))
}

// TestBlockRoundTrip appends random rows and checks that every column,
// timestamp, and lineage word reads back exactly, and that Row
// materialization matches.
func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		w := 1 + rng.Intn(6)
		n := 1 + rng.Intn(150)
		b := NewBlock(w, n)
		type row struct {
			vals     []Value
			ts, seq  int64
			src      SourceSet
			rdy, don uint64
		}
		var rows []row
		for i := 0; i < n; i++ {
			vals, ts, seq, src := randRow(rng, w)
			idx := b.AppendRow(vals, ts, seq, src)
			rdy := rng.Uint64()
			don := rdy & rng.Uint64()
			b.SetLineage(idx, rdy, don)
			rows = append(rows, row{vals, ts, seq, src, rdy, don})
		}
		if b.Len() != n {
			t.Fatalf("Len = %d, want %d", b.Len(), n)
		}
		for i, r := range rows {
			for j := 0; j < w; j++ {
				if !Equal(b.Col(j)[i], r.vals[j]) {
					t.Fatalf("trial %d: col %d row %d mismatch", trial, j, i)
				}
			}
			if b.TS()[i] != r.ts || b.Seq()[i] != r.seq || b.Src(i) != r.src {
				t.Fatalf("trial %d: metadata mismatch at row %d", trial, i)
			}
			if b.Ready(i) != r.rdy || b.Done(i) != r.don {
				t.Fatalf("trial %d: lineage mismatch at row %d", trial, i)
			}
			got := b.Row(i)
			if got.TS != r.ts || got.Seq != r.seq || got.Source != r.src {
				t.Fatalf("trial %d: Row(%d) metadata mismatch", trial, i)
			}
			for j := 0; j < w; j++ {
				if !Equal(got.Vals[j], r.vals[j]) {
					t.Fatalf("trial %d: Row(%d) val %d mismatch", trial, i, j)
				}
			}
		}
	}
}

// TestBlockCompact checks mask-based survivor selection against a
// reference filter: survivors keep their relative order and values.
func TestBlockCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		b := NewBlock(2, n)
		for i := 0; i < n; i++ {
			b.AppendRow([]Value{Int(int64(i)), Int(rng.Int63n(10))}, int64(i), int64(i), 1)
		}
		var m Mask
		m.Reset(n)
		var want []int64
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				m.Set(i)
				want = append(want, int64(i))
			}
		}
		got := b.Compact(&m)
		if got != len(want) {
			t.Fatalf("trial %d: Compact = %d, want %d", trial, got, len(want))
		}
		for i, id := range want {
			if b.Col(0)[i].AsInt() != id {
				t.Fatalf("trial %d: survivor %d = %d, want %d",
					trial, i, b.Col(0)[i].AsInt(), id)
			}
		}
	}
}

// TestBatchPartitionByMask checks the shared partition helper: survivors
// to the front, dropped after, both stably ordered, nothing lost.
func TestBatchPartitionByMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		var b Batch
		for i := 0; i < n; i++ {
			b.Append(New(Int(int64(i))))
		}
		var m Mask
		m.Reset(n)
		var pass, fail []int64
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				m.Set(i)
				pass = append(pass, int64(i))
			} else {
				fail = append(fail, int64(i))
			}
		}
		got := b.PartitionByMask(&m)
		if got != len(pass) {
			t.Fatalf("trial %d: partition = %d, want %d", trial, got, len(pass))
		}
		for i, id := range pass {
			if b.Tuples[i].Vals[0].AsInt() != id {
				t.Fatalf("trial %d: survivor order broken at %d", trial, i)
			}
		}
		for i, id := range fail {
			if b.Tuples[got+i].Vals[0].AsInt() != id {
				t.Fatalf("trial %d: dropped order broken at %d", trial, i)
			}
		}
	}
}

// TestArenaReuseNeverAliasesLiveRows is the aliasing property test the
// arena's lifetime rules promise: rows read out of a block before its
// release must stay intact after the arena recycles the block's slabs
// into new blocks that are appended to.
func TestArenaReuseNeverAliasesLiveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewArena()
	for trial := 0; trial < 20; trial++ {
		b := a.Get(3, 64)
		var snapshots []*Tuple
		for i := 0; i < 64; i++ {
			vals, ts, seq, src := randRow(rng, 3)
			b.AppendRow(vals, ts, seq, src)
			if i%7 == 0 {
				// Materialized rows copy values; they must survive reuse.
				snapshots = append(snapshots, b.Row(i))
			}
		}
		want := make([]string, len(snapshots))
		for i, s := range snapshots {
			want[i] = fmt.Sprint(s.Vals, s.TS, s.Seq)
		}
		b.Release()
		// Reuse the freed slabs and scribble over them.
		c := a.Get(3, 64)
		for i := 0; i < 64; i++ {
			c.AppendRow([]Value{Int(-1), Int(-1), Int(-1)}, -1, -1, 3)
		}
		for i, s := range snapshots {
			if got := fmt.Sprint(s.Vals, s.TS, s.Seq); got != want[i] {
				t.Fatalf("trial %d: live row %d mutated by arena reuse: %q != %q",
					trial, i, got, want[i])
			}
		}
		c.Release()
	}
	gets, reuses, releases := a.Stats()
	if gets != 40 || releases != 40 || reuses < 38 {
		t.Fatalf("arena stats gets=%d reuses=%d releases=%d, want 40/≥38/40",
			gets, reuses, releases)
	}
}

// TestBlockUseAfterReleasePanics pins the runtime half of the lifetime
// rule (tcqlint's ownercheck enforces the static half).
func TestBlockUseAfterReleasePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*Block)
	}{
		{"AppendRow", func(b *Block) { b.AppendRow([]Value{Int(1)}, 0, 0, 1) }},
		{"Row", func(b *Block) { b.Row(0) }},
		{"Reset", func(b *Block) { b.Reset() }},
		{"Compact", func(b *Block) { var m Mask; m.Reset(1); b.Compact(&m) }},
		{"DoubleRelease", func(b *Block) { b.Release() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			b := a.Get(1, 8)
			b.AppendRow([]Value{Int(1)}, 0, 0, 1)
			b.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", tc.name)
				}
			}()
			//lint:ignore ownercheck the use-after-release is the behavior under test
			tc.op(b)
		})
	}
}

// TestBlockMergeProjected checks the fused merge+projection append
// against the row-at-a-time Layout.Merge reference.
func TestBlockMergeProjected(t *testing.T) {
	sSchema := NewSchema("S", Column{Name: "k", Kind: KindInt}, Column{Name: "v", Kind: KindInt})
	rSchema := NewSchema("R", Column{Name: "k", Kind: KindInt}, Column{Name: "w", Kind: KindInt})
	layout := NewLayout(sSchema, rSchema)
	w := len(layout.Wide.Columns)

	probe := NewBlock(w, 8)
	probe.AppendWidened(layout, 0, &Tuple{Vals: []Value{Int(1), Int(10)}, TS: 5, Seq: 2, Source: SingleSource(0)})
	build := NewBlock(w, 8)
	build.AppendWidened(layout, 1, &Tuple{Vals: []Value{Int(1), Int(20)}, TS: 3, Seq: 7, Source: SingleSource(1)})

	out := NewBlock(2, 8)
	out.AppendMergedProjected(probe, 0, build, 0, layout.Offsets[1], layout.Offsets[1]+2, []int{1, 3})
	if out.Len() != 1 {
		t.Fatalf("merged out has %d rows", out.Len())
	}
	if got := out.Col(0)[0].AsInt(); got != 10 {
		t.Fatalf("projected col 0 = %d, want 10", got)
	}
	if got := out.Col(1)[0].AsInt(); got != 20 {
		t.Fatalf("projected col 1 = %d, want 20", got)
	}
	if out.TS()[0] != 5 || out.Seq()[0] != 7 {
		t.Fatalf("merged ts/seq = %d/%d, want max 5/7", out.TS()[0], out.Seq()[0])
	}
	if out.Src(0) != SingleSource(0)|SingleSource(1) {
		t.Fatalf("merged source = %v", out.Src(0))
	}
}

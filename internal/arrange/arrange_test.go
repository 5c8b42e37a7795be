package arrange

import (
	"sync"
	"testing"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func mk(ts int64, key int64) *tuple.Tuple {
	t := tuple.New(tuple.Int(key), tuple.Int(ts))
	t.TS = ts
	t.Seq = ts
	return t
}

func windowedOpts() Options {
	return Options{Name: "s", KeyCol: 0, Windowed: true, TimeKind: window.Physical}
}

func TestInsertLookupScan(t *testing.T) {
	a := New(windowedOpts())
	a.Insert([]*tuple.Tuple{mk(1, 10), mk(2, 20), mk(3, 10)})
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	var hits []int64
	lookup(a, tuple.Int(10).Hash(), func(tt *tuple.Tuple) {
		hits = append(hits, tt.TS)
	})
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("Lookup(10) = %v, want [1 3]", hits)
	}
	var seen []int64
	scan(a, func(tt *tuple.Tuple) { seen = append(seen, tt.TS) })
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("Scan = %v, want time order [1 2 3]", seen)
	}
}

func TestUnindexedLookupScansAll(t *testing.T) {
	a := New(Options{Name: "s", KeyCol: -1})
	a.Insert([]*tuple.Tuple{mk(1, 10), mk(2, 20)})
	n := 0
	lookup(a, 12345, func(*tuple.Tuple) { n++ })
	if n != 2 {
		t.Fatalf("unindexed Lookup visited %d, want 2 (scan)", n)
	}
}

// TestEvictFreesAtOnceUnderCursors: no reader ever holds a stored row, so
// evicted rows are freed by Evict itself and are gone from the next Lookup.
func TestEvictFreesAtOnceUnderCursors(t *testing.T) {
	a := New(windowedOpts())
	a.Insert([]*tuple.Tuple{mk(1, 10), mk(2, 20), mk(3, 30)})
	if n := a.Evict(3); n != 2 {
		t.Fatalf("Evict(3) = %d, want 2", n)
	}
	st := a.Stats()
	if st.Size != 1 || st.Evicted != 2 || st.ReclaimedBytes <= 0 {
		t.Fatalf("after evict: size=%d evicted=%d bytes=%d, want 1/2/>0",
			st.Size, st.Evicted, st.ReclaimedBytes)
	}
	n := 0
	lookup(a, tuple.Int(10).Hash(), func(*tuple.Tuple) { n++ })
	if n != 0 {
		t.Fatalf("evicted row still visible to Lookup")
	}
}

func TestArrangementName(t *testing.T) {
	a := New(Options{Name: "orders", KeyCol: 0})
	if a.Name() != "orders" {
		t.Fatalf("Name = %q, want orders", a.Name())
	}
}

func TestNoCursorsReclaimImmediatelyOnAdvance(t *testing.T) {
	a := New(windowedOpts())
	a.Insert([]*tuple.Tuple{mk(1, 10), mk(2, 20)})
	a.Evict(10)
	if st := a.Stats(); st.Size != 0 || st.Evicted != 2 {
		t.Fatalf("reclaim: size=%d evicted=%d, want 0/2", st.Size, st.Evicted)
	}
}

func TestScrubLineage(t *testing.T) {
	a := New(windowedOpts())
	t1 := mk(1, 10)
	t1.Queries.Set(3)
	t1.Queries.Set(70)
	a.Insert([]*tuple.Tuple{t1})
	var mask tuple.Bitset
	mask.Set(70)
	a.ScrubLineage(mask)
	if !t1.Queries.Test(70) {
		t.Fatalf("scrub wrote the inserted row's own bitmap, which the store copied")
	}
	var stored tuple.Bitset
	scan(a, func(tt *tuple.Tuple) { stored = tt.Queries.Clone() })
	if !stored.Test(3) || stored.Test(70) {
		t.Fatalf("scrub: stored bit3=%v bit70=%v, want true/false",
			stored.Test(3), stored.Test(70))
	}
	// A mask wider than a stored row's bitmap must not panic.
	short := mk(2, 11)
	a.Insert([]*tuple.Tuple{short})
	var wide tuple.Bitset
	wide.Set(200)
	a.ScrubLineage(wide)
}

// TestConcurrentReadersOneWriter exercises the single-writer/many-reader
// contract under the race detector: one goroutine inserts and evicts while
// readers probe and snapshot stats.
func TestConcurrentReadersOneWriter(t *testing.T) {
	a := New(windowedOpts())
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lookup(a, tuple.Int(1).Hash(), func(tt *tuple.Tuple) {
					_ = tt.TS
				})
				_ = a.Stats()
			}
		}()
	}
	for i := int64(0); i < 500; i++ {
		a.Insert([]*tuple.Tuple{mk(i, i%8)})
		if i%16 == 0 {
			a.Evict(i - 64)
		}
	}
	close(stop)
	wg.Wait()
	if st := a.Stats(); int64(st.Size)+st.Evicted != st.Inserts {
		t.Fatalf("size %d + evicted %d != inserts %d", st.Size, st.Evicted, st.Inserts)
	}
}

func TestSlotsLifecycle(t *testing.T) {
	var s Slots
	a := s.Fresh()
	b := s.Fresh()
	c := s.Fresh()
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("fresh ids = %d,%d,%d, want 0,1,2", a, b, c)
	}
	if _, ok := s.Alloc(); ok {
		t.Fatalf("Alloc succeeded with empty free list")
	}
	s.Free(2)
	s.Free(0)
	if s.Cooling() != 2 {
		t.Fatalf("cooling=%d, want 2", s.Cooling())
	}
	if _, ok := s.Alloc(); ok {
		t.Fatalf("cooling slots must not be allocatable before Promote")
	}
	m := s.CoolingMask()
	if !m.Test(0) || m.Test(1) || !m.Test(2) {
		t.Fatalf("cooling mask wrong: %v", m)
	}
	s.Promote()
	// LIFO pop must yield the smallest cooled ID first, independent of the
	// order the queries were removed in.
	id, ok := s.Alloc()
	if !ok || id != 0 {
		t.Fatalf("first reuse = %d,%v, want 0,true", id, ok)
	}
	id, ok = s.Alloc()
	if !ok || id != 2 {
		t.Fatalf("second reuse = %d,%v, want 2,true", id, ok)
	}
	if s.High() != 3 {
		t.Fatalf("high water = %d, want 3", s.High())
	}
}

// TestCursorlessEvictFreesAtOnce: what an arrangement evicts is freed by
// Evict itself, round after round, and the emptied store reuses its first
// chunk instead of growing.
func TestCursorlessEvictFreesAtOnce(t *testing.T) {
	a := New(windowedOpts())
	var bytes int64
	for round := int64(1); round <= 3; round++ {
		batch := make([]*tuple.Tuple, 100)
		for i := range batch {
			batch[i] = mk(round*1000+int64(i), int64(i%8))
		}
		a.Insert(batch)
		if n := a.Evict(round*1000 + 100); n != 100 {
			t.Fatalf("round %d: Evict = %d, want 100", round, n)
		}
		st := a.Stats()
		if st.Evicted != 100*round || st.Size != 0 {
			t.Fatalf("round %d: evicted=%d size=%d, want %d/0",
				round, st.Evicted, st.Size, 100*round)
		}
		if round > 1 && st.Bytes != bytes {
			t.Fatalf("round %d: the empty store holds %d bytes, %d after round 1", round, st.Bytes, bytes)
		}
		bytes = st.Bytes
	}
}

// TestReadLocksOncePerBatch: Read answers any number of lookups under one
// acquisition, and Bucket/All see what the lookup/scan helpers see, in the same order.
func TestReadLocksOncePerBatch(t *testing.T) {
	a := New(windowedOpts())
	a.Insert([]*tuple.Tuple{mk(3, 10), mk(1, 20), mk(2, 10)})
	var byKey, all []int64
	var row tuple.Tuple
	a.Read(func(r Rows) {
		for _, k := range []int64{10, 20, 30} {
			r.Bucket(tuple.Int(k).Hash(), func(rw Row) {
				rw.Decode(&row, nil)
				byKey = append(byKey, row.TS)
			})
		}
		r.All(func(rw Row) {
			rw.Decode(&row, nil)
			all = append(all, row.TS)
		})
		// The read lock is held across the whole callback.
		if a.mu.TryLock() {
			t.Error("Read does not hold the arrangement's lock")
		}
	})
	if len(byKey) != 3 || byKey[0] != 3 || byKey[1] != 2 || byKey[2] != 1 {
		t.Fatalf("Bucket order = %v, want insertion order per key [3 2 1]", byKey)
	}
	if len(all) != 3 || all[0] != 1 || all[1] != 2 || all[2] != 3 {
		t.Fatalf("All = %v, want time order [1 2 3]", all)
	}
}

// lookup calls emit for every row of Bucket(hash), under one Read, each
// decoded into the same tuple: emit must copy what it keeps.
func lookup(a *Arrangement, hash uint64, emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) { r.Bucket(hash, decodeEach(emit)) })
}

// scan calls emit for every stored row in All's order, under one Read.
func scan(a *Arrangement, emit func(*tuple.Tuple)) {
	a.Read(func(r Rows) { r.All(decodeEach(emit)) })
}

// decodeEach is a visitor decoding each row into one tuple for emit.
func decodeEach(emit func(*tuple.Tuple)) func(Row) {
	var t tuple.Tuple
	var vals []tuple.Value
	return func(row Row) {
		vals = row.Decode(&t, vals[:0])
		emit(&t)
	}
}

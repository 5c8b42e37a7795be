package storage

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"telegraphcq/internal/tuple"
)

// writeTestSegment encodes n tuples into a segment file and returns its path.
func writeTestSegment(t *testing.T, dir, name string, n int) string {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		tp := tuple.New(tuple.Int(int64(i)))
		tp.TS = int64(i)
		tp.Seq = int64(i)
		buf = appendRow(buf, tp)
	}
	path := filepath.Join(dir, name+".seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A miss stampede on one key must decode the segment exactly once: the
// first reader hits disk, later arrivals wait on the in-flight result.
func TestPoolSingleFlightDecode(t *testing.T) {
	dir := t.TempDir()
	key := writeTestSegment(t, dir, "s", 16)
	p := NewBufferPool(4)

	const readers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, readers)
	lens := make([]int, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ts, err := p.Get(key)
			errs[i], lens[i] = err, len(ts)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if lens[i] != 16 {
			t.Fatalf("reader %d: got %d tuples, want 16", i, lens[i])
		}
	}
	if d := p.Decodes(); d != 1 {
		t.Fatalf("decode stampede: %d disk decodes for one key, want 1", d)
	}
	hits, misses := p.Counters()
	if hits+misses != readers {
		t.Fatalf("accounted %d accesses, want %d", hits+misses, readers)
	}
}

// Invalidate racing an in-flight read must keep the stale result out of
// the cache: once the segment file is gone (post-Flush eviction), no
// reader may leave its ghost resident.
func TestPoolInvalidateDuringInflightRead(t *testing.T) {
	dir := t.TempDir()
	p := NewBufferPool(8)

	for round := 0; round < 200; round++ {
		key := writeTestSegment(t, dir, "r", 8)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Get(key) // may error if the file is already deleted
			}()
		}
		os.Remove(key)
		p.Invalidate(key)
		wg.Wait()

		// Every read either finished before the Invalidate (then the entry
		// was dropped) or was marked stale (then it never entered). Either
		// way the key must not be resident now that its file is gone.
		p.mu.Lock()
		_, resident := p.pages[key]
		p.mu.Unlock()
		if resident {
			t.Fatalf("round %d: deleted segment still resident after Invalidate", round)
		}
	}
}

// Concurrent Gets across more keys than the pool holds force constant
// eviction; every reader must still see a complete, correct segment.
func TestPoolConcurrentGetDuringEviction(t *testing.T) {
	dir := t.TempDir()
	const keys = 12
	paths := make([]string, keys)
	for i := range paths {
		paths[i] = writeTestSegment(t, dir, string(rune('a'+i)), 4+i)
	}
	p := NewBufferPool(3) // far below the working set: every Get may evict

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % keys
				ts, err := p.Get(paths[k])
				if err != nil {
					t.Errorf("get %s: %v", paths[k], err)
					return
				}
				if len(ts) != 4+k {
					t.Errorf("key %d: got %d tuples, want %d", k, len(ts), 4+k)
					return
				}
				if v := ts[0].Vals[0].AsInt(); v != 0 {
					t.Errorf("key %d: corrupt first tuple %v", k, ts[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if r := p.Resident(); r > 3 {
		t.Fatalf("pool over capacity: %d resident, cap 3", r)
	}
}

// A segment evicted from the store (file deleted, pool invalidated) must
// not be served from cache afterwards: re-reading the range hits disk and
// fails, rather than returning the pre-Flush ghost.
func TestPoolNoStaleSegmentAfterStoreEvict(t *testing.T) {
	dir := t.TempDir()
	p := NewBufferPool(8)
	st, err := NewSegmentStore(dir, "s", 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tp := tuple.New(tuple.Int(int64(i)))
		tp.TS = int64(i)
		tp.Seq = int64(i)
		if err := st.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fault both segments into the pool.
	if got, err := st.ScanRange(0, 7); err != nil || len(got) != 8 {
		t.Fatalf("scan: %d tuples, err %v", len(got), err)
	}
	if dropped := st.EvictBefore(4); dropped != 4 {
		t.Fatalf("evicted %d tuples, want the first segment's 4", dropped)
	}
	got, err := st.ScanRange(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range got {
		if tp.TS < 4 {
			t.Fatalf("stale tuple TS=%d served after eviction", tp.TS)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d tuples after eviction, want 4", len(got))
	}
}

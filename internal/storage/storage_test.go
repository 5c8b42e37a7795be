package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

func TestCodecRoundTrip(t *testing.T) {
	in := tuple.New(
		tuple.Int(-42),
		tuple.Float(3.14159),
		tuple.String_("MSFT"),
		tuple.Bool(true),
		tuple.Time(99),
		tuple.Null,
	)
	in.TS = 123
	in.Seq = 456
	buf := AppendRow(nil, in)
	out, n, err := readOne(buf)
	if err != nil {
		t.Fatal(err)
	}
	if size, vals := rowSize(buf); n != len(buf) || size != n || vals != 6 {
		t.Errorf("consumed %d of %d bytes; rowSize says %d bytes of %d values", n, len(buf), size, vals)
	}
	if out.TS != 123 || out.Seq != 456 || len(out.Vals) != 6 {
		t.Fatalf("decoded = %+v", out)
	}
	for i := range in.Vals {
		if !tuple.Equal(in.Vals[i], out.Vals[i]) || in.Vals[i].K != out.Vals[i].K {
			t.Errorf("val %d: %v != %v", i, in.Vals[i], out.Vals[i])
		}
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, ts int64) bool {
		in := tuple.New(tuple.Int(i), tuple.Float(fl), tuple.String_(s), tuple.Bool(b))
		in.TS = ts
		buf := AppendRow(nil, in)
		out, _, err := readOne(buf)
		if err != nil {
			return false
		}
		if out.TS != ts {
			return false
		}
		for j := range in.Vals {
			if in.Vals[j].K != out.Vals[j].K {
				return false
			}
			// NaN != NaN under Compare; compare bit patterns for floats.
			if in.Vals[j].K == tuple.KindFloat {
				if floatBits(in.Vals[j].F) != floatBits(out.Vals[j].F) {
					return false
				}
				continue
			}
			if !tuple.Equal(in.Vals[j], out.Vals[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecCorruption(t *testing.T) {
	in := tuple.New(tuple.String_("hello"))
	buf := AppendRow(nil, in)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := readOne(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
		if n, _ := rowSize(buf[:cut]); n != 0 {
			t.Errorf("rowSize steps %d bytes over a row truncated at %d", n, cut)
		}
	}
}

// readOne decodes the row at the front of buf into a fresh tuple.
func readOne(buf []byte) (*tuple.Tuple, int, error) {
	t := new(tuple.Tuple)
	_, n, err := ReadRow(buf, t, nil)
	return t, n, err
}

func mkTS(ts int64) *tuple.Tuple {
	t := tuple.New(tuple.Int(ts), tuple.String_("x"))
	t.TS = ts
	t.Seq = ts
	return t
}

func TestStoreSpoolAndScan(t *testing.T) {
	dir := t.TempDir()
	st, err := NewSegmentStore(dir, "s", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 55; ts++ {
		if err := st.Append(mkTS(ts)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Segments != 5 || stats.HeadTuples != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	// Scan spans disk segments and the in-memory head.
	got, err := st.ScanRange(7, 52)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 46 {
		t.Fatalf("scan = %d tuples, want 46", len(got))
	}
	for i, tp := range got {
		if tp.TS != int64(7+i) {
			t.Fatalf("scan order broken at %d: ts=%d", i, tp.TS)
		}
	}
}

func TestStoreScanAfterFlushAll(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 10, nil)
	for ts := int64(0); ts < 20; ts++ {
		st.Append(mkTS(ts))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := st.ScanRange(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Errorf("scan = %d", len(got))
	}
}

func TestStoreEvict(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 10, nil)
	for ts := int64(0); ts < 50; ts++ {
		st.Append(mkTS(ts))
	}
	if n := st.EvictBefore(25); n != 20 { // segments [0,9], [10,19] fully below 25; [20,29] kept
		t.Errorf("evicted %d, want 20", n)
	}
	got, _ := st.ScanRange(0, 100)
	if len(got) != 30 {
		t.Errorf("post-evict scan = %d, want 30", len(got))
	}
}

// TestStoreRetainKeepsTheNewestRows: with a retain bound, each flush drops
// the oldest whole segments while the rest still hold the bound, deleting
// their files; Stats counts what is left, files and head.
func TestStoreRetainKeepsTheNewestRows(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 10, NewBufferPool(4))
	st.Retain(25)
	for ts := int64(0); ts < 105; ts++ {
		if err := st.Append(mkTS(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// The last flush, of the tenth segment, left three segments: two would
	// hold only 20 rows. Five rows have reached the head since.
	stats := st.Stats()
	if stats.Segments != 3 || stats.Rows != 35 || stats.HeadTuples != 5 {
		t.Fatalf("stats = %+v, want 3 segments, 35 rows, 5 in the head", stats)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if len(files) != 3 || stats.Bytes <= size {
		t.Errorf("%d files of %d bytes, Stats.Bytes %d: want 3 files, and the head's bytes on top", len(files), size, stats.Bytes)
	}
	got, err := st.ScanRange(0, 200)
	if err != nil || len(got) != 35 || got[0].TS != 70 || got[34].TS != 104 {
		t.Fatalf("scan = %d rows (err %v), want 70..104", len(got), err)
	}
}

// TestStoreRetainToleratesAMissingFile: a segment whose file is already
// gone when it ages out counts as removed; the Append whose flush aged it
// out still succeeds, and later flushes keep aging.
func TestStoreRetainToleratesAMissingFile(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 10, nil)
	st.Retain(25)
	for ts := int64(0); ts < 20; ts++ {
		if err := st.Append(mkTS(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(st.segPath(0)); err != nil {
		t.Fatal(err)
	}
	for ts := int64(20); ts < 100; ts++ {
		if err := st.Append(mkTS(ts)); err != nil {
			t.Fatalf("append %d: %v", ts, err)
		}
	}
	if s := st.Stats(); s.Segments != 3 || s.RemoveErrors != 0 {
		t.Fatalf("stats = %+v, want 3 segments and no remove errors", s)
	}
	got, err := st.ScanRange(0, 200)
	if err != nil || len(got) != 30 || got[0].TS != 70 {
		t.Fatalf("scan = %d rows (err %v), want 70..99", len(got), err)
	}
}

// TestStoreRetainSparesOutOfOrderSegments: retention drops through
// EvictBefore, at the smallest maxT among the segments the bound keeps, so
// a kept segment whose rows arrived late is never dropped.
func TestStoreRetainSparesOutOfOrderSegments(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 10, nil)
	for ts := int64(0); ts < 30; ts++ {
		st.Append(mkTS(ts))
	}
	for ts := int64(15); ts < 25; ts++ { // a late segment, TS 15..24
		st.Append(mkTS(ts))
	}
	st.Retain(20)
	for ts := int64(30); ts < 40; ts++ {
		st.Append(mkTS(ts))
	}
	// The bound lets the first three segments go and keeps the late one
	// and [30,39]; the late one's maxT, 24, is the watermark, so [20,29]
	// stays with it.
	if s := st.Stats(); s.Segments != 3 || s.Rows != 30 {
		t.Fatalf("stats = %+v, want [20,29], the late segment and [30,39] kept", s)
	}
	got, _ := st.ScanRange(0, 24)
	if len(got) != 15 || got[0].TS != 15 {
		t.Fatalf("scan to 24 = %d rows from %v, want 15 from TS 15", len(got), got[0].TS)
	}
}

func TestStoreOutOfOrderWithinSegment(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "s", 5, nil)
	for _, ts := range []int64{3, 1, 4, 0, 2} {
		st.Append(mkTS(ts))
	}
	got, _ := st.ScanRange(0, 10)
	for i, tp := range got {
		if tp.TS != int64(i) {
			t.Fatalf("order = %v at %d", tp.TS, i)
		}
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	dir := t.TempDir()
	pool := NewBufferPool(2)
	st, _ := NewSegmentStore(dir, "s", 10, pool)
	for ts := int64(0); ts < 40; ts++ {
		st.Append(mkTS(ts))
	}
	// 4 segments; pool holds 2.
	if _, err := st.ScanRange(0, 39); err != nil {
		t.Fatal(err)
	}
	hits, misses := pool.Counters()
	if misses != 4 || hits != 0 {
		t.Errorf("first scan: hits=%d misses=%d", hits, misses)
	}
	// Rescan only the two newest segments: both resident → all hits.
	if _, err := st.ScanRange(20, 39); err != nil {
		t.Fatal(err)
	}
	hits, _ = pool.Counters()
	if hits != 2 {
		t.Errorf("second scan hits = %d, want 2", hits)
	}
	if pool.Resident() != 2 {
		t.Errorf("resident = %d", pool.Resident())
	}
	if pool.HitRate() <= 0 {
		t.Error("hit rate not positive")
	}
}

func TestPoolInvalidateOnEvict(t *testing.T) {
	dir := t.TempDir()
	pool := NewBufferPool(8)
	st, _ := NewSegmentStore(dir, "s", 10, pool)
	for ts := int64(0); ts < 30; ts++ {
		st.Append(mkTS(ts))
	}
	st.ScanRange(0, 29)
	before := pool.Resident()
	st.EvictBefore(15)
	if pool.Resident() >= before {
		t.Errorf("pool did not invalidate evicted segments: %d -> %d",
			before, pool.Resident())
	}
}

func TestStoreStockWorkloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewSegmentStore(dir, "stocks", 64, NewBufferPool(4))
	gen := workload.NewStockGenerator(1, nil)
	in := gen.Take(500)
	for _, tp := range in {
		st.Append(tp)
	}
	st.Flush()
	out, err := st.ScanRange(-1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 {
		t.Fatalf("round trip = %d tuples", len(out))
	}
	// Spot-check value fidelity on a few random tuples.
	rng := rand.New(rand.NewSource(2))
	bySeq := make(map[int64]*tuple.Tuple)
	for _, tp := range in {
		bySeq[tp.Seq] = tp
	}
	for i := 0; i < 50; i++ {
		tp := out[rng.Intn(len(out))]
		want := bySeq[tp.Seq]
		for j := range want.Vals {
			if !tuple.Equal(want.Vals[j], tp.Vals[j]) {
				t.Fatalf("seq %d val %d: %v != %v", tp.Seq, j, tp.Vals[j], want.Vals[j])
			}
		}
	}
}

// TestLogChunksViewsAndCap: a Log reads back every row as appended across
// chunk boundaries, a row larger than a whole chunk included; a snapshot
// taken mid-way sees exactly the rows before it while appends go on; and no
// chunk outgrows the chunk cap but the one sized to the big row.
func TestLogChunksViewsAndCap(t *testing.T) {
	const rows = 5000
	l := NewLog(4 << 10)
	row := func(i int) *tuple.Tuple {
		s := "v"
		if i == 1234 {
			s = strings.Repeat("x", 2*maxChunk)
		}
		r := tuple.New(tuple.Int(int64(i)), tuple.String_(s))
		r.Seq, r.TS = int64(i), int64(i)
		return r
	}
	var mid Log
	for i := 0; i < rows; i++ {
		l.Append(row(i))
		if i == rows/2-1 {
			mid = l.Snapshot()
		}
	}
	if l.Len() != rows || l.Bytes() < 2*maxChunk {
		t.Fatalf("%d rows, %d bytes: want the big row to start its own chunk", l.Len(), l.Bytes())
	}
	big := 0
	for _, c := range l.chunks {
		if cap(c.buf) > maxChunk {
			big++
		}
	}
	if len(l.chunks) < 3 || big != 1 {
		t.Fatalf("%d chunks, %d of them past the cap: want one, the big row's", len(l.chunks), big)
	}
	for _, tc := range []struct {
		v    *Log
		want int
	}{{&mid, rows / 2}, {l, rows}} {
		got, err := tc.v.Decode(tc.v.Locate(0, Mark{}), -1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.want {
			t.Fatalf("view holds %d rows, want %d", len(got), tc.want)
		}
		for i, r := range got {
			if want := row(i); r.Seq != want.Seq || r.TS != want.TS || r.Vals[1].S != want.Vals[1].S {
				t.Fatalf("row %d = seq %d ts %d, want %d", i, r.Seq, r.TS, i)
			}
		}
	}
	if got, _ := l.Decode(l.Locate(0, Mark{}), 10, 19); len(got) != 10 || got[0].TS != 10 {
		t.Errorf("Scan(10, 19) = %d rows", len(got))
	}
}

// TestScanAllocatesPerCallNotPerRow: decoding a history or a spooled
// segment makes a fixed number of allocations however many rows it holds or
// the range keeps (none of the rows hold a string).
func TestScanAllocatesPerCallNotPerRow(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSegmentStore(dir, "s", 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 10000} {
		l := NewLog(4 << 10)
		for i := 0; i < n; i++ {
			r := tuple.New(tuple.Int(int64(i)), tuple.Float(1.5), tuple.Time(int64(i)))
			r.Seq, r.TS = int64(i), int64(i)
			l.Append(r)
		}
		for _, rng := range [][2]int64{{0, int64(n)}, {2, 5}} {
			var got []*tuple.Tuple
			a := testing.AllocsPerRun(10, func() {
				v := l.Snapshot()
				got, err = v.Decode(v.Locate(0, Mark{}), rng[0], rng[1])
			})
			if want := min(int(rng[1]-rng[0]+1), n); err != nil || len(got) != want || a > 4 {
				t.Errorf("scan of %v over %d rows: %d rows (want %d), %v allocations, err %v", rng, n, len(got), want, a, err)
			}
		}
		path := s.segPath(int64(n))
		f, err := os.Create(path)
		if err == nil {
			err = errors.Join(l.writeTo(f), f.Close())
		}
		if err != nil {
			t.Fatal(err)
		}
		read := testing.AllocsPerRun(10, func() { _, err = os.ReadFile(path) })
		a := testing.AllocsPerRun(10, func() {
			var got []*tuple.Tuple
			if got, err = readSegmentFile(path); err != nil || len(got) != n {
				t.Fatalf("segment of %d rows read as %d, err %v", n, len(got), err)
			}
		})
		if a > read+3 {
			t.Errorf("reading a segment of %d rows allocates %v times, the file read %v", n, a, read)
		}
	}
}

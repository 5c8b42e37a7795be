package egress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
)

func mk(v int64) *tuple.Tuple { return tuple.New(tuple.Int(v)) }

func TestPushFanOut(t *testing.T) {
	e := NewPushEgress()
	id1, ch1 := e.Subscribe(4)
	_, ch2 := e.Subscribe(4)
	e.Publish(mk(1))
	e.Publish(mk(2))
	if got := (<-ch1).Vals[0].AsInt(); got != 1 {
		t.Errorf("ch1 first = %d", got)
	}
	if got := (<-ch2).Vals[0].AsInt(); got != 1 {
		t.Errorf("ch2 first = %d", got)
	}
	sent, dropped := e.Stats()
	if sent != 4 || dropped != 0 {
		t.Errorf("stats = %d sent, %d dropped", sent, dropped)
	}
	e.Unsubscribe(id1)
	if _, ok := <-ch1; ok && len(ch1) == 0 {
		// drain remaining then expect close
	}
	e.Publish(mk(3))
	if got := (<-ch2).Vals[0].AsInt(); got != 2 {
		t.Errorf("ch2 second = %d", got)
	}
}

func TestPushSlowClientDrops(t *testing.T) {
	e := NewPushEgress()
	e.Subscribe(1)
	e.Publish(mk(1))
	e.Publish(mk(2)) // buffer full: dropped, not blocked
	_, dropped := e.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

// TestPushCloseEndsEveryClient: Close closes every channel after what it
// still buffers, later Subscribes get a closed channel, and Unsubscribe
// and Publish after Close are no-ops.
func TestPushCloseEndsEveryClient(t *testing.T) {
	e := NewPushEgress()
	id, ch := e.Subscribe(4)
	e.Publish(mk(1))
	e.Close()
	e.Unsubscribe(id)
	if n := e.Publish(mk(2)); n != 0 {
		t.Errorf("Publish after Close reached %d clients", n)
	}
	var got []int64
	for r := range ch {
		got = append(got, r.Vals[0].AsInt())
	}
	if !slices.Equal(got, []int64{1}) {
		t.Errorf("drained %v, want [1]", got)
	}
	_, late := e.Subscribe(4)
	if _, open := <-late; open {
		t.Error("Subscribe after Close returned an open channel")
	}
}

func TestPullCursorSemantics(t *testing.T) {
	e := NewPullEgress(100)
	e.Publish(mk(1))
	id := e.Register() // sees only post-registration results
	e.Publish(mk(2))
	e.Publish(mk(3))
	got, missed, err := e.Fetch(id)
	if err != nil || missed != 0 {
		t.Fatalf("fetch: %v missed=%d", err, missed)
	}
	if len(got) != 2 || got[0].Vals[0].AsInt() != 2 {
		t.Fatalf("results = %v", got)
	}
	// Second fetch: nothing new.
	got, _, _ = e.Fetch(id)
	if len(got) != 0 {
		t.Errorf("refetch = %d", len(got))
	}
}

func TestPullReplayFromStart(t *testing.T) {
	e := NewPullEgress(100)
	e.Publish(mk(1))
	e.Publish(mk(2))
	id := e.RegisterAt(0)
	got, _, _ := e.Fetch(id)
	if len(got) != 2 {
		t.Errorf("replay = %d", len(got))
	}
	// A position past the log end is clamped to it: the cursor sees what is
	// published from now on (Fetch used to panic on a negative capacity).
	ahead := e.RegisterAt(1 << 40)
	if got, missed, err := e.Fetch(ahead); err != nil || missed != 0 || len(got) != 0 {
		t.Errorf("fetch past the end = %d rows, missed %d, err %v", len(got), missed, err)
	}
	e.Publish(mk(3))
	if got, _, _ := e.Fetch(ahead); len(got) != 1 || got[0].Vals[0].AsInt() != 3 {
		t.Errorf("after the clamp fetched %v, want the one new row", got)
	}
}

func TestPullAgedOutResults(t *testing.T) {
	e := NewPullEgress(3)
	id := e.RegisterAt(0)
	for i := int64(1); i <= 10; i++ {
		e.Publish(mk(i))
	}
	got, missed, err := e.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if missed != 7 || len(got) != 3 {
		t.Errorf("missed=%d got=%d", missed, len(got))
	}
	if got[0].Vals[0].AsInt() != 8 {
		t.Errorf("first retained = %d", got[0].Vals[0].AsInt())
	}
}

func TestPullUnknownClient(t *testing.T) {
	e := NewPullEgress(10)
	if _, _, err := e.Fetch(99); err == nil {
		t.Error("unknown client fetch succeeded")
	}
	id := e.Register()
	e.Deregister(id)
	if _, _, err := e.Fetch(id); err == nil {
		t.Error("deregistered client fetch succeeded")
	}
}

func TestPullLen(t *testing.T) {
	e := NewPullEgress(2)
	e.Publish(mk(1))
	e.Publish(mk(2))
	e.Publish(mk(3))
	if e.Len() != 2 {
		t.Errorf("len = %d", e.Len())
	}
}

func TestPriorityEgressOrder(t *testing.T) {
	e := NewPriorityEgress(10, func(t *tuple.Tuple) float64 {
		return float64(t.Vals[0].AsInt())
	})
	for _, v := range []int64{3, 9, 1, 7, 5} {
		e.Publish(mk(v))
	}
	got := e.Drain(0)
	want := []int64{9, 7, 5, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("drained %d", len(got))
	}
	for i := range want {
		if got[i].Vals[0].AsInt() != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	emitted, shed := e.Stats()
	if emitted != 5 || shed != 0 {
		t.Errorf("stats = %d, %d", emitted, shed)
	}
}

func TestPriorityEgressShedsLeastInteresting(t *testing.T) {
	e := NewPriorityEgress(3, func(t *tuple.Tuple) float64 {
		return float64(t.Vals[0].AsInt())
	})
	for v := int64(1); v <= 6; v++ {
		e.Publish(mk(v))
	}
	if e.Pending() != 3 {
		t.Fatalf("pending = %d", e.Pending())
	}
	got := e.Drain(0)
	// Highest three survive the preference-aware shedding.
	for i, want := range []int64{6, 5, 4} {
		if got[i].Vals[0].AsInt() != want {
			t.Fatalf("survivors = %v", got)
		}
	}
	if _, shed := e.Stats(); shed != 3 {
		t.Errorf("shed = %d", shed)
	}
}

func TestPriorityEgressEmpty(t *testing.T) {
	e := NewPriorityEgress(2, func(*tuple.Tuple) float64 { return 0 })
	if e.Next() != nil {
		t.Error("next on empty")
	}
	if got := e.Drain(5); len(got) != 0 {
		t.Errorf("drain = %d", len(got))
	}
}

// pullLog is what the model test drives: PullEgress and the slice it
// replaced answer the same calls.
type pullLog interface {
	Publish(t *tuple.Tuple)
	PublishBatch(ts []*tuple.Tuple, owned bool)
	Register() int
	RegisterAt(pos int64) int
	Fetch(id int) ([]*tuple.Tuple, int64, error)
	Deregister(id int)
	Cursors() int
	Len() int
}

// sliceLog is the retention log PullEgress had before the ring: a slice
// that appends, then shifts the survivors down over whatever aged out. It
// stays here as the oracle the encoded log is checked against, keeping a
// copy of each row, since the publisher reuses its tuples.
type sliceLog struct {
	log     []*tuple.Tuple
	cap     int
	base    int64
	cursors map[int]int64
	nextID  int
}

func (e *sliceLog) Publish(t *tuple.Tuple) { e.PublishBatch([]*tuple.Tuple{t}, false) }

func (e *sliceLog) PublishBatch(ts []*tuple.Tuple, _ bool) {
	for _, t := range ts {
		e.log = append(e.log, t.Clone())
	}
	over := len(e.log) - e.cap
	if over <= 0 {
		return
	}
	n := copy(e.log, e.log[over:])
	clear(e.log[n:])
	e.log = e.log[:n]
	e.base += int64(over)
}

func (e *sliceLog) Register() int { return e.RegisterAt(e.base + int64(len(e.log))) }

func (e *sliceLog) RegisterAt(pos int64) int {
	if pos < e.base {
		pos = e.base
	}
	if end := e.base + int64(len(e.log)); pos > end {
		pos = end
	}
	id := e.nextID
	e.nextID++
	e.cursors[id] = pos
	return id
}

func (e *sliceLog) Fetch(id int) (results []*tuple.Tuple, missed int64, err error) {
	cur, ok := e.cursors[id]
	if !ok {
		return nil, 0, fmt.Errorf("egress: unknown client %d", id)
	}
	if cur < e.base {
		missed = e.base - cur
		cur = e.base
	}
	results = append(results, e.log[cur-e.base:]...)
	e.cursors[id] = e.base + int64(len(e.log))
	return results, missed, nil
}

func (e *sliceLog) Deregister(id int) { delete(e.cursors, id) }
func (e *sliceLog) Cursors() int      { return len(e.cursors) }
func (e *sliceLog) Len() int          { return len(e.log) }

// randomRow fills t, reusing its Vals, with one to five values of every
// kind the codec knows, extremes included, and a Seq and TS of either sign.
func randomRow(rng *rand.Rand, t *tuple.Tuple) {
	t.Vals = t.Vals[:0]
	for n := 1 + rng.Intn(5); n > 0; n-- {
		var v tuple.Value
		switch rng.Intn(6) {
		case 0:
			v = tuple.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63n(1000) - 500}[rng.Intn(5)])
		case 1:
			v = tuple.Float([]float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.MaxFloat64, rng.NormFloat64()}[rng.Intn(6)])
		case 2:
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			v = tuple.String_(string(b))
		case 3:
			v = tuple.Bool(rng.Intn(2) == 0)
		case 4:
			v = tuple.Value{K: tuple.KindTime, I: rng.Int63() - rng.Int63()}
		default:
			v = tuple.Null
		}
		t.Vals = append(t.Vals, v)
	}
	t.Seq, t.TS = rng.Int63n(1<<40)-1<<39, rng.Int63()-rng.Int63()
}

// sameRow reports whether a fetched row carries exactly the published
// row's Seq, TS and values; floats compare by bits, so NaN and -0 count.
func sameRow(got, want *tuple.Tuple) bool {
	if got.Seq != want.Seq || got.TS != want.TS || len(got.Vals) != len(want.Vals) {
		return false
	}
	for i, w := range want.Vals {
		g := got.Vals[i]
		if g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
			return false
		}
	}
	return true
}

// checkRing holds the pull log to its cap and to what it retains: the rows
// from Start to the end, encoded back to back, and its bytes cover them
// with at most two chunks and the spare more. FuzzLog (internal/storage)
// holds the chunks themselves to the chunk rule.
func checkRing(t *testing.T, e *PullEgress) {
	t.Helper()
	enc, rows, _ := e.log.AppendTo(nil, e.log.Locate(e.log.Start(), storage.Mark{}))
	held := len(enc)
	if n := e.log.Len(); n > e.cap || rows != n || e.log.Bytes() < held || e.log.Bytes() > held+3*(64<<10) {
		t.Fatalf("%d rows (%d from the start) for a cap of %d; %d bytes held for %d encoded", n, rows, e.cap, e.log.Bytes(), held)
	}
}

// TestPullRingMatchesSliceModel drives the encoded log and the slice it
// replaced through one seeded random history per cap and requires them to
// be indistinguishable: the same rows fetched in the same order, value for
// value over every kind, the same missed counts, lengths and cursor counts
// after every single operation. The publisher rewrites its tuples the
// moment a publish returns, as a member recycling its projected row does,
// so a log that kept a pointer fetches the wrong values. Half the fetches
// go through FetchEncoded and Each.
func TestPullRingMatchesSliceModel(t *testing.T) {
	const ops = 12000
	for _, capRows := range []int{1, 2, 3, 7, 64} {
		t.Run(fmt.Sprintf("cap%d", capRows), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + capRows)))
			ring := NewPullEgress(capRows)
			oracle := &sliceLog{cap: capRows, cursors: make(map[int]int64)}
			sides := []pullLog{ring, oracle}
			rows := make([]*tuple.Tuple, 2*capRows+3) // the publisher's tuples, reused
			for i := range rows {
				rows[i] = new(tuple.Tuple)
			}
			batch := func(n int) []*tuple.Tuple {
				for _, r := range rows[:n] {
					randomRow(rng, r)
				}
				return rows[:n]
			}
			scribble := func(ts []*tuple.Tuple) {
				for _, r := range ts {
					randomRow(rng, r)
				}
			}

			var encoded []byte // FetchEncoded's buffer, reused
			var vals int
			var cursors []int // ids are handed out in the same order on both sides
			published, missedSum := int64(0), int64(0)
			for op := 0; op < ops; op++ {
				what := ""
				switch k := rng.Intn(12); {
				case k <= 1:
					what = "Publish"
					ts := batch(1)
					for _, s := range sides {
						s.Publish(ts[0])
					}
					scribble(ts)
					published++
				case k <= 5:
					sizes := []int{0, 1, rng.Intn(capRows), capRows, capRows + 1 + rng.Intn(capRows+2)}
					n := sizes[rng.Intn(len(sizes))]
					what = fmt.Sprintf("PublishBatch(%d rows)", n)
					ts := batch(n)
					for _, s := range sides {
						s.PublishBatch(ts, rng.Intn(2) == 0)
					}
					scribble(ts)
					published += int64(n)
				case k == 6 && len(cursors) < 6:
					what = "Register"
					id := ring.Register()
					if got := oracle.Register(); got != id {
						t.Fatalf("op %d %s: cursor id %d, model %d", op, what, id, got)
					}
					cursors = append(cursors, id)
				case k == 7 && len(cursors) < 6:
					var pos int64
					switch rng.Intn(3) {
					case 0: // below base (or below zero)
						pos = oracle.base - 1 - int64(rng.Intn(4))
					case 1: // inside the retained range, both ends included
						pos = oracle.base + int64(rng.Intn(len(oracle.log)+1))
					default: // past the end
						pos = oracle.base + int64(len(oracle.log)) + 1 + int64(rng.Intn(4))
					}
					what = fmt.Sprintf("RegisterAt(%d) with rows [%d, %d)", pos, oracle.base, oracle.base+int64(len(oracle.log)))
					id := ring.RegisterAt(pos)
					if got := oracle.RegisterAt(pos); got != id {
						t.Fatalf("op %d %s: cursor id %d, model %d", op, what, id, got)
					}
					cursors = append(cursors, id)
				case k <= 9:
					id := -1 // an id nobody holds: both must refuse it
					if len(cursors) > 0 && rng.Intn(10) > 0 {
						id = cursors[rng.Intn(len(cursors))]
					}
					what = fmt.Sprintf("Fetch(%d)", id)
					var got []*tuple.Tuple
					var missed int64
					var err error
					if rng.Intn(2) == 0 {
						got, missed, err = ring.Fetch(id)
					} else {
						what = fmt.Sprintf("FetchEncoded(%d)", id)
						var enc Encoded
						enc, missed, err = ring.FetchEncoded(id, encoded[:0])
						encoded, vals = enc.Buf, 0
						err = errors.Join(err, enc.Each(new(tuple.Tuple), func(r *tuple.Tuple) {
							got = append(got, r.Clone())
							vals += len(r.Vals)
						}))
						if len(got) != enc.Rows || vals != enc.Vals {
							t.Fatalf("op %d %s: decoded %d rows of %d values, Encoded says %d of %d", op, what, len(got), vals, enc.Rows, enc.Vals)
						}
					}
					want, wantMissed, wantErr := oracle.Fetch(id)
					if (err == nil) != (wantErr == nil) || missed != wantMissed || len(got) != len(want) {
						t.Fatalf("op %d %s: %d rows, missed %d, err %v; model %d rows, missed %d, err %v",
							op, what, len(got), missed, err, len(want), wantMissed, wantErr)
					}
					for i := range got {
						if !sameRow(got[i], want[i]) {
							t.Fatalf("op %d %s: row %d is %+v, model %+v", op, what, i, got[i], want[i])
						}
					}
					missedSum += missed
				default:
					if len(cursors) == 0 {
						continue
					}
					i := rng.Intn(len(cursors))
					what = fmt.Sprintf("Deregister(%d)", cursors[i])
					for _, s := range sides {
						s.Deregister(cursors[i])
					}
					cursors = append(cursors[:i], cursors[i+1:]...)
				}

				if got, want := ring.Len(), oracle.Len(); got != want {
					t.Fatalf("op %d %s: Len %d, model %d", op, what, got, want)
				}
				if got, want := ring.Cursors(), oracle.Cursors(); got != want {
					t.Fatalf("op %d %s: Cursors %d, model %d", op, what, got, want)
				}
				checkRing(t, ring)
				evicted, missedTotal := ring.Stats()
				if evicted != oracle.base || evicted+int64(ring.Len()) != published || missedTotal != missedSum {
					t.Fatalf("op %d %s: evicted %d (model %d) + retained %d vs published %d; missed %d vs %d returned by Fetch",
						op, what, evicted, oracle.base, ring.Len(), published, missedTotal, missedSum)
				}
			}
			if oracle.base == 0 || missedSum == 0 {
				t.Fatalf("the history never aged a row out (%d) or never had a cursor miss one (%d): it tests nothing", oracle.base, missedSum)
			}
		})
	}
}

// TestPullRingAtDefaultCap is the acceptance shape: far more rows than the
// default cap, one cursor that never fetched. The log holds the retained
// rows' bytes and at most one chunk and a spare more.
func TestPullRingAtDefaultCap(t *testing.T) {
	const published, retention = 200000, 1 << 16
	e := NewPullEgress(0)
	lagging := e.RegisterAt(0)
	batch := make([]*tuple.Tuple, 7) // does not divide the cap: the ring wraps mid-batch
	for i := 0; i < published; {
		if i%2 == 0 {
			e.Publish(mk(int64(i)))
			i++
			continue
		}
		n := len(batch)
		if published-i < n {
			n = published - i
		}
		for j := 0; j < n; j++ {
			batch[j] = mk(int64(i + j))
		}
		e.PublishBatch(batch[:n], false)
		i += n
	}
	evicted, _ := e.Stats()
	if e.Len() != retention || evicted+int64(e.Len()) != published {
		t.Fatalf("Len %d, evicted %d, published %d", e.Len(), evicted, published)
	}
	checkRing(t, e)
	enc, _, _ := e.log.AppendTo(nil, e.log.Locate(0, storage.Mark{}))
	retained := len(enc)
	if e.Bytes() > retained+2*(64<<10) {
		t.Fatalf("%d bytes held for %d bytes of retained rows", e.Bytes(), retained)
	}
	got, missed, err := e.Fetch(lagging)
	if err != nil || missed != evicted || len(got) != retention {
		t.Fatalf("fetched %d rows, missed %d (evicted %d), err %v", len(got), missed, evicted, err)
	}
	for i, r := range got {
		if want := int64(published - retention + i); r.Vals[0].AsInt() != want {
			t.Fatalf("row %d of the suffix is %d, want %d", i, r.Vals[0].AsInt(), want)
		}
	}
	if _, total := e.Stats(); total != missed {
		t.Fatalf("Stats reports %d missed, Fetch returned %d", total, missed)
	}
}

// TestPullRingConcurrentFetch races a fetcher against a publisher on a ring
// that wraps every few batches (run it under -race): whatever the
// interleaving, the cursor sees strictly ascending rows, and the rows it got
// plus the rows it was told it missed are all the rows there were.
func TestPullRingConcurrentFetch(t *testing.T) {
	const published = 20000
	e := NewPullEgress(64)
	cur := e.RegisterAt(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]*tuple.Tuple, 0, 24)
		for i := int64(1); i <= published; {
			batch = batch[:0]
			for n := 1 + i%24; n > 0 && i <= published; n-- {
				batch = append(batch, mk(i))
				i++
			}
			e.PublishBatch(batch, false)
		}
	}()
	var got, missed, last int64
	var buf []byte
	fetch := func(i int) {
		var rows []*tuple.Tuple
		var m int64
		var err error
		if i%2 == 0 {
			rows, m, err = e.Fetch(cur)
		} else {
			var enc Encoded
			enc, m, err = e.FetchEncoded(cur, buf[:0])
			buf = enc.Buf
			err = errors.Join(err, enc.Each(new(tuple.Tuple), func(r *tuple.Tuple) { rows = append(rows, r.Clone()) }))
			if len(rows) != enc.Rows || enc.Vals != enc.Rows {
				t.Fatalf("decoded %d rows, Encoded says %d rows of %d values", len(rows), enc.Rows, enc.Vals)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		missed += m
		for _, r := range rows {
			if v := r.Vals[0].AsInt(); v <= last {
				t.Fatalf("row %d fetched after row %d", v, last)
			} else {
				last = v
			}
		}
		got += int64(len(rows))
	}
	for i, running := 0, true; running; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		fetch(i)
	}
	if got+missed != published || last != published {
		t.Fatalf("fetched %d + missed %d of %d rows, last row %d", got, missed, published, last)
	}
	if evicted, total := e.Stats(); total != missed || evicted != published-64 {
		t.Fatalf("Stats: evicted %d, missed %d; the cursor missed %d", evicted, total, missed)
	}
}

// filledToCap returns a default-cap log holding exactly its cap.
func filledToCap(ts []*tuple.Tuple) *PullEgress {
	e := NewPullEgress(0)
	for e.Len() < 1<<16 {
		e.PublishBatch(ts, false)
	}
	return e
}

// TestPullPublishAtCapDoesNotAllocate: at its cap the log ages a row out
// for every row it takes and reuses the chunk the oldest rows leave, so a
// publish allocates nothing.
func TestPullPublishAtCapDoesNotAllocate(t *testing.T) {
	ts := make([]*tuple.Tuple, 64)
	for i := range ts {
		ts[i] = mk(int64(i))
	}
	e := filledToCap(ts)
	if n := testing.AllocsPerRun(1000, func() { e.Publish(ts[0]) }); n != 0 {
		t.Errorf("a single-row publish into a full log allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { e.PublishBatch(ts, false) }); n != 0 {
		t.Errorf("a 64-row publish into a full log allocates %v times", n)
	}
	// AllocsPerRun rounds an allocation every few thousand publishes down
	// to 0: four caps' worth of rows moves every chunk through the spare.
	// Best of three, since the runtime can allocate inside the window.
	best := uint64(1 << 63)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4<<16; i += len(ts) {
			e.PublishBatch(ts, false)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Errorf("publishing four caps' worth of rows into a full log allocates %d times", best)
	}
}

// TestPullFetchAllocatesPerCallNotPerRow: Fetch of N rows makes the same
// few allocations whatever N is (a row slice, a tuple slab, a value slab),
// and FetchEncoded into a buffer of room makes none.
func TestPullFetchAllocatesPerCallNotPerRow(t *testing.T) {
	row := tuple.New(tuple.Int(1), tuple.Float(2.5), tuple.Bool(true), tuple.Value{K: tuple.KindTime, I: 9}, tuple.Null)
	for _, n := range []int{10, 10000} {
		e := NewPullEgress(0)
		for e.Len() < 1<<16 {
			e.Publish(row) // at the cap, publishing allocates nothing
		}
		cur := e.Register()
		var buf []byte
		fetch := func() {
			for i := 0; i < n; i++ {
				e.Publish(row)
			}
			rows, _, err := e.Fetch(cur)
			if err != nil || len(rows) != n {
				t.Fatalf("fetched %d rows, err %v", len(rows), err)
			}
		}
		fetch()
		if a := testing.AllocsPerRun(20, fetch); a > 3 {
			t.Errorf("Fetch of %d rows allocates %v times, want at most 3", n, a)
		}
		fetchEncoded := func() {
			for i := 0; i < n; i++ {
				e.Publish(row)
			}
			enc, _, err := e.FetchEncoded(cur, buf[:0])
			if err != nil || enc.Rows != n || enc.Vals != n*len(row.Vals) {
				t.Fatalf("fetched %d rows of %d values, err %v", enc.Rows, enc.Vals, err)
			}
			buf = enc.Buf
		}
		fetchEncoded()
		if a := testing.AllocsPerRun(20, fetchEncoded); a != 0 {
			t.Errorf("FetchEncoded of %d rows allocates %v times into a buffer of room", n, a)
		}
	}
}

// BenchmarkPullPublish is the publisher's cost per row into a log that is
// still growing ("empty": from nothing up to the default cap, then a fresh
// log) and into one that ages a row out for every row it takes ("atcap"),
// a row at a time and in batches of 64. The four should be within a small
// factor of each other: at the cap nothing depends on how much is retained.
func BenchmarkPullPublish(b *testing.B) {
	ts := make([]*tuple.Tuple, 64)
	for i := range ts {
		ts[i] = mk(int64(i))
	}
	for _, fill := range []string{"empty", "atcap"} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/b%d", fill, batch), func(b *testing.B) {
				e, rows := NewPullEgress(0), 0
				if fill == "atcap" {
					e = filledToCap(ts)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fill == "empty" && rows+batch > 1<<16 {
						e, rows = NewPullEgress(0), 0
					}
					e.PublishBatch(ts[:batch], false)
					rows += batch
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
			})
		}
	}
}

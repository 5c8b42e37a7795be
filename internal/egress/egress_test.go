package egress

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
	PublishOwned(t *tuple.Tuple, owned bool)
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
// stays here as the oracle the ring is checked against.
type sliceLog struct {
	log     []pullEntry
	cap     int
	base    int64
	cursors map[int]int64
	nextID  int
	pool    *tuple.Pool
}

func (e *sliceLog) Publish(t *tuple.Tuple) { e.PublishOwned(t, false) }

func (e *sliceLog) PublishOwned(t *tuple.Tuple, owned bool) {
	e.log = append(e.log, pullEntry{t: t, owned: owned && e.pool != nil})
	e.evictOver()
}

func (e *sliceLog) PublishBatch(ts []*tuple.Tuple, owned bool) {
	owned = owned && e.pool != nil
	for _, t := range ts {
		e.log = append(e.log, pullEntry{t: t, owned: owned})
	}
	e.evictOver()
}

func (e *sliceLog) evictOver() {
	over := len(e.log) - e.cap
	if over <= 0 {
		return
	}
	for i := 0; i < over; i++ {
		if ent := e.log[i]; ent.owned {
			e.pool.Put(ent.t)
		}
	}
	n := copy(e.log, e.log[over:])
	for i := n; i < len(e.log); i++ {
		e.log[i] = pullEntry{}
	}
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
	for i := int(cur - e.base); i < len(e.log); i++ {
		e.log[i].owned = false
		results = append(results, e.log[i].t)
	}
	e.cursors[id] = e.base + int64(len(e.log))
	return results, missed, nil
}

func (e *sliceLog) Deregister(id int) { delete(e.cursors, id) }
func (e *sliceLog) Cursors() int      { return len(e.cursors) }
func (e *sliceLog) Len() int          { return len(e.log) }

// modelSide is one log under test with a pool of its own: an owned tuple
// goes back exactly once, so the ring and the oracle cannot share one. Rows
// are told apart by the number in their one column.
type modelSide struct {
	log    pullLog
	pool   *tuple.Pool
	tuples map[*tuple.Tuple]int64
	puts   int64
}

func newModelSide(log pullLog, pool *tuple.Pool) *modelSide {
	return &modelSide{log: log, pool: pool, tuples: make(map[*tuple.Tuple]int64)}
}

func (s *modelSide) tuple(id int64) *tuple.Tuple {
	t := mk(id)
	s.tuples[t] = id
	return t
}

func (s *modelSide) batch(first int64, n int) []*tuple.Tuple {
	ts := make([]*tuple.Tuple, n)
	for i := range ts {
		ts[i] = s.tuple(first + int64(i))
	}
	return ts
}

// recycled takes back what the log has returned to the pool since the last
// call (the pool hands out its most recent returns first) and names it: the
// ids of the tuples Put, sorted.
func (s *modelSide) recycled(t *testing.T) (tuples []int64) {
	t.Helper()
	for puts := s.pool.Stats().Puts; s.puts < puts; s.puts++ {
		tp := s.pool.Get(1)
		id, ok := s.tuples[tp]
		if !ok {
			t.Fatalf("the pool handed out a tuple that was never published or was Put twice")
		}
		delete(s.tuples, tp)
		tuples = append(tuples, id)
	}
	slices.Sort(tuples)
	return tuples
}

// rowIDs names fetched rows by the id each was made with: the log must hand
// back the very pointer it was given.
func (s *modelSide) rowIDs(t *testing.T, rows []*tuple.Tuple) []int64 {
	t.Helper()
	ids := make([]int64, len(rows))
	for i, r := range rows {
		id, ok := s.tuples[r]
		if !ok {
			t.Fatalf("fetched a tuple that was never published or was already recycled")
		}
		ids[i] = id
	}
	return ids
}

// checkRing holds the ring to its own invariants: never more slots than
// the cap, no wrap before the array is at the cap, and nothing but zero
// values outside the retained range, so what aged out is collectable.
func checkRing(t *testing.T, e *PullEgress) {
	t.Helper()
	if cap(e.ring) > e.cap {
		t.Fatalf("backing array of %d (cap %d) slots for a cap of %d rows", len(e.ring), cap(e.ring), e.cap)
	}
	if e.n > len(e.ring) || (len(e.ring) < e.cap && e.head != 0) {
		t.Fatalf("head %d, %d rows in %d slots, cap %d", e.head, e.n, len(e.ring), e.cap)
	}
	for i := e.n; i < len(e.ring); i++ {
		if ent := e.ring[e.at(i)]; ent != (pullEntry{}) {
			t.Fatalf("slot %d is outside the %d retained rows and still holds %+v", e.at(i), e.n, ent)
		}
	}
}

// TestPullRingMatchesSliceModel drives the ring and the slice it replaced
// through one seeded random history per cap and requires them to be
// indistinguishable: the same rows fetched in the same order, the same
// missed counts, lengths and cursor counts, and the same tuples handed back
// for reuse after every single operation.
func TestPullRingMatchesSliceModel(t *testing.T) {
	const ops = 12000
	for _, capRows := range []int{1, 2, 3, 7, 64} {
		t.Run(fmt.Sprintf("cap%d", capRows), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + capRows)))
			ringLog := NewPullEgress(capRows)
			ringPool, modelPool := tuple.NewPool(), tuple.NewPool()
			ringLog.SetRecycler(ringPool)
			oracle := &sliceLog{cap: capRows, cursors: make(map[int]int64), pool: modelPool}
			ring, model := newModelSide(ringLog, ringPool), newModelSide(oracle, modelPool)
			sides := []*modelSide{ring, model}

			var cursors []int // ids are handed out in the same order on both sides
			next := int64(1)  // row ids: positive, never reused
			published, missedSum := int64(0), int64(0)
			for op := 0; op < ops; op++ {
				what := ""
				switch k := rng.Intn(12); {
				case k == 0:
					what = "Publish"
					for _, s := range sides {
						s.log.Publish(s.tuple(next))
					}
					next, published = next+1, published+1
				case k == 1:
					what = "PublishOwned"
					for _, s := range sides {
						s.log.PublishOwned(s.tuple(next), true)
					}
					next, published = next+1, published+1
				case k <= 5:
					sizes := []int{0, 1, rng.Intn(capRows), capRows, capRows + 1 + rng.Intn(capRows+2)}
					n, owned := sizes[rng.Intn(len(sizes))], rng.Intn(2) == 0
					what = fmt.Sprintf("PublishBatch(%d rows, owned=%v)", n, owned)
					for _, s := range sides {
						s.log.PublishBatch(s.batch(next, n), owned)
					}
					next, published = next+int64(n), published+int64(n)
				case k == 6 && len(cursors) < 6:
					what = "Register"
					id := ring.log.Register()
					if got := model.log.Register(); got != id {
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
					id := ring.log.RegisterAt(pos)
					if got := model.log.RegisterAt(pos); got != id {
						t.Fatalf("op %d %s: cursor id %d, model %d", op, what, id, got)
					}
					cursors = append(cursors, id)
				case k <= 9:
					id := -1 // an id nobody holds: both must refuse it
					if len(cursors) > 0 && rng.Intn(10) > 0 {
						id = cursors[rng.Intn(len(cursors))]
					}
					what = fmt.Sprintf("Fetch(%d)", id)
					got, missed, err := ring.log.Fetch(id)
					want, wantMissed, wantErr := model.log.Fetch(id)
					if (err == nil) != (wantErr == nil) || missed != wantMissed {
						t.Fatalf("op %d %s: missed %d err %v, model missed %d err %v", op, what, missed, err, wantMissed, wantErr)
					}
					if g, w := ring.rowIDs(t, got), model.rowIDs(t, want); !reflect.DeepEqual(g, w) {
						t.Fatalf("op %d %s: fetched %v, model %v", op, what, g, w)
					}
					missedSum += missed
				default:
					if len(cursors) == 0 {
						continue
					}
					i := rng.Intn(len(cursors))
					what = fmt.Sprintf("Deregister(%d)", cursors[i])
					for _, s := range sides {
						s.log.Deregister(cursors[i])
					}
					cursors = append(cursors[:i], cursors[i+1:]...)
				}

				if got, want := ring.log.Len(), model.log.Len(); got != want {
					t.Fatalf("op %d %s: Len %d, model %d", op, what, got, want)
				}
				if got, want := ring.log.Cursors(), model.log.Cursors(); got != want {
					t.Fatalf("op %d %s: Cursors %d, model %d", op, what, got, want)
				}
				if got, want := ring.recycled(t), model.recycled(t); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d %s: recycled tuples %v, model %v", op, what, got, want)
				}
				checkRing(t, ringLog)
				evicted, missedTotal := ringLog.Stats()
				if evicted != oracle.base || evicted+int64(ringLog.Len()) != published || missedTotal != missedSum {
					t.Fatalf("op %d %s: evicted %d (model %d) + retained %d vs published %d; missed %d vs %d returned by Fetch",
						op, what, evicted, oracle.base, ringLog.Len(), published, missedTotal, missedSum)
				}
			}
			if oracle.base == 0 || missedSum == 0 {
				t.Fatalf("the history never aged a row out (%d) or never had a cursor miss one (%d): it tests nothing", oracle.base, missedSum)
			}
		})
	}
}

// TestPullRingAtDefaultCap is the acceptance shape: far more rows than the
// default cap, one cursor that never fetched.
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
	if len(e.ring) != retention || cap(e.ring) != retention {
		t.Fatalf("backing array has %d slots (cap %d), want exactly %d", len(e.ring), cap(e.ring), retention)
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
	e.SetRecycler(tuple.NewPool())
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
			e.PublishBatch(batch, true) // unfetched rows go back to the pool as they age out
		}
	}()
	var got, missed, last int64
	fetch := func() {
		rows, m, err := e.Fetch(cur)
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
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		fetch()
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

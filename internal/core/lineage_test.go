package core

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"

	"telegraphcq/internal/tuple"
)

// Pins for "lineage stays inside the shared eddy" (DESIGN.md §5): a
// sequential shared class routes its subscriber clones as the wide rows,
// copies lineage into reused bitmaps, returns every delivered row to the
// tuple pool (members publish its values), and delivers rows that carry no
// lineage.

// rangeQuery is the SQL of a member selecting lo <= v < hi from S(k, v):
// the whole row when star, else v alone.
func rangeQuery(lo, hi int64, star bool) string {
	cols := "v"
	if star {
		cols = "*"
	}
	return fmt.Sprintf(`SELECT %s FROM S WHERE v >= %d AND v < %d`, cols, lo, hi)
}

// sharedClassAllocsPerTuple registers 1,000 disjoint projected range members
// on S, at the given worker count, feeds warm-up rows one Engine.Feed at a
// time, and returns the
// process's heap allocations per fed row over the next measured rows, best
// of three engines (a collection inside the window empties the sync.Pool
// behind the tuple recycler and charges the refill to the steady state).
// Every input is built before the window opens, so the caller's own tuples
// are not counted. Each row matches exactly one member.
func sharedClassAllocsPerTuple(t *testing.T, workers int) float64 {
	t.Helper()
	const members, warm, measured = 1000, 16000, 16000
	in := make([]*tuple.Tuple, warm+measured)
	for i := range in {
		in[i] = tuple.New(tuple.Int(int64(i)), tuple.Int(int64(i*7919)%(members*100)))
	}
	best := -1.0
	for trial := 0; trial < 3; trial++ {
		e := twoStreamEngine(t, Options{Workers: workers})
		qs := make([]*RunningQuery, members)
		for i := range qs {
			q, err := e.Register(rangeQuery(int64(i*100), int64(i*100+100), false))
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		results := func() (n int64) {
			for _, q := range qs {
				n += q.Results()
			}
			return n
		}
		feed := func(ts []*tuple.Tuple) {
			for _, tp := range ts {
				if err := e.Feed("S", tp); err != nil {
					t.Fatal(err)
				}
			}
		}
		feed(in[:warm])
		waitFor(t, "the warm-up's results", func() bool { return results() >= warm })

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		feed(in[warm:])
		waitFor(t, "the measured rows' results", func() bool { return results() >= warm+measured })
		goruntime.ReadMemStats(&after)
		e.Stop()
		if got := results(); got != warm+measured {
			t.Fatalf("%d results, want %d", got, warm+measured)
		}
		if a := float64(after.Mallocs-before.Mallocs) / measured; best < 0 || a < best {
			best = a
		}
	}
	return best
}

// TestSharedClassSteadyStateAllocs pins what a selection class costs per fed
// tuple once the tuple pool is warm: nothing — 0.00 here. Each member's pull
// log keeps its results' values in chunks, so the projected row is dead once
// emit returns and the member's next result is written into it. It was 2.04
// while the log held a pointer per result (a projected Tuple and its Vals
// per delivery), and 7.05 before the class adopted its subscriber clones
// and reused lineage bitmaps: a subscriber snapshot per Feed, a wide row and
// its Vals, a lineage clone, and a lineage clone on the projected row.
// Leaving the class's engine without SetRecycler (clones and bitmaps to the
// collector, so every Feed clone misses the pool) fails here. At two
// workers the class runs on pipeline shards, which route the drained
// batches the same way and get their rows and lineage bitmaps back from the
// merge stage; it was 3.13 while the shards were fed widened copies with
// cloned lineage.
func TestSharedClassSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			got := sharedClassAllocsPerTuple(t, workers)
			t.Logf("allocs per fed tuple through a 1,000-member selection class at %d workers: %.2f", workers, got)
			if got > 0.5 {
				t.Errorf("selection class allocates %.2f objects per fed tuple at steady state, want <= 0.5", got)
			}
		})
	}
}

// TestSharedDeliveryCarriesNoLineage: lineage is routing state, so no row a
// shared class delivers carries it — neither a projected row nor the wide
// row itself, which a SELECT * member receives — on the pull log or the push
// channel. 5,000 members with overlapping ranges alternate between the two
// kinds, so every fed row reaches both.
func TestSharedDeliveryCarriesNoLineage(t *testing.T) {
	const members, width, fed = 5000, 8, 1000
	e := twoStreamEngine(t, Options{})
	defer e.Stop()
	qs := make([]*RunningQuery, members)
	for i := range qs {
		q, err := e.Register(rangeQuery(int64(i), int64(i+width), i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	type sub struct {
		q  *RunningQuery
		id int
		ch <-chan *tuple.Tuple
	}
	var subs []sub
	for i := 0; i < members; i += 97 {
		id, ch := qs[i].Subscribe(1024)
		subs = append(subs, sub{qs[i], id, ch})
	}

	rng := rand.New(rand.NewSource(5))
	var want int64
	for i := 0; i < fed; i++ {
		v := int64(rng.Intn(members))
		want += min(v, members-1) - max(0, v-width+1) + 1
		if err := e.Feed("S", tuple.New(tuple.Int(int64(i)), tuple.Int(v))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every delivery", func() bool {
		var n int64
		for _, q := range qs {
			n += q.Results()
		}
		return n >= want
	})

	rows := 0
	check := func(how string, q *RunningQuery, r *tuple.Tuple) {
		rows++
		if r.Queries != nil {
			t.Fatalf("%s row of query %d carries lineage %v", how, q.ID, r.Queries)
		}
	}
	for _, q := range qs {
		res, err := q.Fetch(q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			check("fetched", q, r)
		}
	}
	for _, s := range subs {
		s.q.Unsubscribe(s.id)
		for r := range s.ch {
			check("pushed", s.q, r)
		}
	}
	if int64(rows) < want {
		t.Fatalf("checked %d rows, want at least the %d delivered", rows, want)
	}
}

// rangeMember is one standing range query of the use-after-free differential
// with its plain-Go expectation: the rows of every fed (k, v) with
// lo <= v < hi, in feed order, fed while it stood.
type rangeMember struct {
	lo, hi int64
	star   bool
	q      *RunningQuery
	want   [][]int64
	subIDs []int
	pushed [][]*tuple.Tuple
}

func (m *rangeMember) expect(k, v int64) {
	switch {
	case v < m.lo || v >= m.hi:
	case m.star:
		m.want = append(m.want, []int64{k, v})
	default:
		m.want = append(m.want, []int64{v})
	}
}

// verify compares rows with the expectation value by value: a row the pool
// handed out again while a client still held it shows up zeroed or with
// another tuple's values.
func (m *rangeMember) verify(t *testing.T, how string, rows []*tuple.Tuple) {
	t.Helper()
	if len(rows) != len(m.want) {
		t.Fatalf("query %d (%s): %d %s rows, want %d", m.q.ID, rangeQuery(m.lo, m.hi, m.star), len(rows), how, len(m.want))
	}
	for i, r := range rows {
		if r.Queries != nil {
			t.Fatalf("query %d: %s row %d carries lineage", m.q.ID, how, i)
		}
		ok := len(r.Vals) == len(m.want[i])
		for j := 0; ok && j < len(r.Vals); j++ {
			ok = r.Vals[j].K == tuple.KindInt && r.Vals[j].AsInt() == m.want[i][j]
		}
		if !ok {
			t.Fatalf("query %d: %s row %d = %v, want %v", m.q.ID, how, i, r, m.want[i])
		}
	}
}

// TestSharedReleaseIsUseAfterFreeSafe is a differential against plain Go for
// the rows a selection class returns to the tuple pool: overlapping SELECT *
// and projected members on one class, half the tuples traced, two push
// subscribers draining concurrently and a cursor on every stable member, and
// members registered and deregistered between rounds (slot reuse changes the
// lineage template a spare bitmap must fit). Each member's pushed and
// fetched sequences must equal its expectation exactly.
func TestSharedReleaseIsUseAfterFreeSafe(t *testing.T) {
	const stable, churn, rounds, perRound, span = 24, 8, 4, 1500, 200
	e := twoStreamEngine(t, Options{TraceSampleRate: 0.5})
	defer e.Stop()
	rng := rand.New(rand.NewSource(22))
	register := func(star bool) *rangeMember {
		lo := int64(rng.Intn(span - 10))
		m := &rangeMember{lo: lo, hi: lo + 5 + int64(rng.Intn(40)), star: star}
		q, err := e.Register(rangeQuery(m.lo, m.hi, m.star))
		if err != nil {
			t.Fatal(err)
		}
		m.q = q
		return m
	}
	// The catch-all sees every fed row, so once its count reaches the fed
	// total the class has routed them all and the next registration cannot
	// see an earlier round's row.
	all := &rangeMember{lo: 0, hi: span, star: true}
	q, err := e.Register(rangeQuery(all.lo, all.hi, all.star))
	if err != nil {
		t.Fatal(err)
	}
	all.q = q

	var wg sync.WaitGroup
	var mu sync.Mutex
	members := []*rangeMember{all}
	for i := 0; i < stable; i++ {
		m := register(i%2 == 0)
		m.pushed = make([][]*tuple.Tuple, 2)
		for s := range m.pushed {
			id, ch := m.q.Subscribe(4096)
			m.subIDs = append(m.subIDs, id)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for r := range ch {
					mu.Lock()
					m.pushed[s] = append(m.pushed[s], r)
					mu.Unlock()
				}
			}(s)
		}
		members = append(members, m)
	}

	fed := int64(0)
	var churning []*rangeMember
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			k, v := fed, int64(rng.Intn(span))
			fed++
			for _, m := range members {
				m.expect(k, v)
			}
			for _, m := range churning {
				m.expect(k, v)
			}
			if err := e.Feed("S", tuple.New(tuple.Int(k), tuple.Int(v))); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, fmt.Sprintf("round %d routed", round), func() bool { return all.q.Results() == fed })
		for _, m := range churning {
			waitResults(t, m.q, int64(len(m.want)))
			res, err := m.q.Fetch(m.q.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			m.verify(t, "fetched", res)
			if err := e.Deregister(m.q.ID); err != nil {
				t.Fatal(err)
			}
		}
		churning = churning[:0]
		for i := 0; i < churn && round < rounds-1; i++ {
			churning = append(churning, register(i%2 == 1))
		}
	}

	for _, m := range members {
		waitResults(t, m.q, int64(len(m.want)))
	}
	// Push readers follow the result logs, and Unsubscribe drops what a
	// reader has not yet sent: wait until every client has read to the end.
	for _, m := range members {
		for s := range m.pushed {
			waitFor(t, "the push clients to read every result", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(m.pushed[s]) >= len(m.want)
			})
		}
		for _, id := range m.subIDs {
			m.q.Unsubscribe(id)
		}
	}
	wg.Wait()
	for _, m := range members {
		res, err := m.q.Fetch(m.q.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		m.verify(t, "fetched", res)
		for _, rows := range m.pushed {
			m.verify(t, "pushed", rows)
		}
	}
}

// heldRow is a row a client was handed, with a copy of its values as they
// were when it arrived.
type heldRow struct {
	r    *tuple.Tuple
	vals []tuple.Value
}

// holder keeps every row handed to one client.
type holder struct {
	mu   sync.Mutex
	rows []heldRow
}

func (h *holder) hold(r *tuple.Tuple) {
	h.mu.Lock()
	h.rows = append(h.rows, heldRow{r, append([]tuple.Value(nil), r.Vals...)})
	h.mu.Unlock()
}

// TestClientRowsAreNeverReused is the ownership differential for the rows a
// class member writes its next result into: one class S with a projected
// member that is always push-subscribed, one that never is, a DISTINCT
// member, a SELECT * member (it is handed the class's wide row, which goes
// back to the tuple pool once delivered) with a push client, a projected
// member whose push clients come and go every fifty rows, and one that
// gains a push client halfway. Every member's projected row is written
// over by its next result, and every push client reads the result log, so
// whatever a client was handed must keep the values it had when it
// arrived, and every pull log must hold exactly its member's results. At
// two workers the class runs on pipeline shards and its merge stage
// delivers.
func TestClientRowsAreNeverReused(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const fed, span = 6000, 64
			e := twoStreamEngine(t, Options{Workers: workers})
			defer e.Stop()
			register := func(sql string) *RunningQuery {
				q, err := e.Register(sql)
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			watched := register(`SELECT v, k FROM S WHERE v < 48`)
			unwatched := register(`SELECT v, k FROM S WHERE v >= 16`)
			distinct := register(`SELECT DISTINCT v FROM S WHERE v < 40`)
			star := register(`SELECT * FROM S WHERE v >= 8`)
			churned := register(`SELECT v, k FROM S WHERE v < 56`)
			late := register(`SELECT v, k FROM S WHERE v >= 24`)
			qs := []*RunningQuery{watched, unwatched, distinct, star, churned, late}
			for _, q := range qs {
				if q.label != "shared:S" {
					t.Fatalf("query %d runs as %s, want a member of class S", q.ID, q.label)
				}
			}
			if _, sharded := watched.ParallelStats(); sharded != (workers > 1) {
				t.Fatalf("class S on pipeline shards: %v at %d workers", sharded, workers)
			}

			var wg sync.WaitGroup
			drain := func(ch <-chan *tuple.Tuple) *holder {
				h := &holder{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range ch {
						h.hold(r)
					}
				}()
				return h
			}
			_, ch := watched.Subscribe(fed)
			watchedClient := drain(ch)
			_, ch = star.Subscribe(fed)
			starClient := drain(ch)
			var churnClients []*holder
			var lateClient *holder

			rng := rand.New(rand.NewSource(38))
			var want [6][][]int64
			seen := map[int64]bool{}
			churnID, subscribed := 0, false
			for k := int64(0); k < fed; k++ {
				if k%50 == 0 {
					// Let the class catch up, so clients join and leave
					// between rows it delivers.
					waitFor(t, "the class to catch up", func() bool { return star.Results() >= int64(len(want[3])) })
					if k == fed/2 {
						_, ch = late.Subscribe(fed)
						lateClient = drain(ch)
					}
					if subscribed {
						churned.Unsubscribe(churnID)
					} else {
						churnID, ch = churned.Subscribe(fed)
						churnClients = append(churnClients, drain(ch))
					}
					subscribed = !subscribed
				}
				v := int64(rng.Intn(span))
				if v < 48 {
					want[0] = append(want[0], []int64{v, k})
				}
				if v >= 16 {
					want[1] = append(want[1], []int64{v, k})
				}
				if v < 40 && !seen[v] {
					seen[v] = true
					want[2] = append(want[2], []int64{v})
				}
				if v >= 8 {
					want[3] = append(want[3], []int64{k, v})
				}
				if v < 56 {
					want[4] = append(want[4], []int64{v, k})
				}
				if v >= 24 {
					want[5] = append(want[5], []int64{v, k})
				}
				if err := e.Feed("S", tuple.New(tuple.Int(k), tuple.Int(v))); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range qs {
				waitResults(t, q, int64(len(want[i])))
			}
			// Push readers follow the result logs: wait until the clients
			// that stay have read to the end, then stop the engine, which
			// closes every client.
			lastOf := func(h *holder, want [][]int64) func() bool {
				return func() bool {
					h.mu.Lock()
					defer h.mu.Unlock()
					n := len(h.rows)
					return n > 0 && slices.Equal(intsOf(h.rows[n-1].vals), want[len(want)-1])
				}
			}
			waitFor(t, "the watched member's client", lastOf(watchedClient, want[0]))
			waitFor(t, "the SELECT * member's client", lastOf(starClient, want[3]))
			waitFor(t, "the late client", lastOf(lateClient, want[5]))
			e.Stop()
			wg.Wait()

			same := func(r *tuple.Tuple, want []int64) bool {
				ok := len(r.Vals) == len(want)
				for j := 0; ok && j < len(want); j++ {
					ok = r.Vals[j].K == tuple.KindInt && r.Vals[j].I == want[j]
				}
				return ok
			}
			for i, q := range qs {
				res, err := q.Fetch(q.Cursor())
				if err != nil || len(res) != len(want[i]) {
					t.Fatalf("query %d: fetched %d rows, want %d (err %v)", q.ID, len(res), len(want[i]), err)
				}
				for j, r := range res {
					if !same(r, want[i][j]) {
						t.Fatalf("query %d: fetched row %d = %v, want %v", q.ID, j, r.Vals, want[i][j])
					}
				}
			}
			// The watched and SELECT * clients got every result of their
			// members, the late client a suffix of its member's, each as it
			// arrived.
			for _, c := range []struct {
				name string
				h    *holder
				want [][]int64
			}{
				{"watched", watchedClient, want[0]},
				{"SELECT *", starClient, want[3]},
				{"late", lateClient, want[5][len(want[5])-len(lateClient.rows):]},
			} {
				if len(c.h.rows) != len(c.want) {
					t.Fatalf("the %s member's client got %d rows, want %d", c.name, len(c.h.rows), len(c.want))
				}
				for j, hr := range c.h.rows {
					if !same(hr.r, c.want[j]) || !same(hr.r, []int64{hr.vals[0].I, hr.vals[1].I}) {
						t.Fatalf("the %s member's client row %d = %v (arrived as %v), want %v", c.name, j, hr.r.Vals, hr.vals, c.want[j])
					}
				}
			}
			if n := len(lateClient.rows); n == len(want[5]) {
				t.Fatalf("the late client got all %d of its member's rows: it joined at the start", n)
			}
			held := 0
			for _, h := range churnClients {
				last := int64(-1)
				for _, hr := range h.rows {
					if !same(hr.r, []int64{hr.vals[0].I, hr.vals[1].I}) {
						t.Fatalf("a row a client holds changed from %v to %v", hr.vals, hr.r.Vals)
					}
					if k := hr.vals[1].I; k <= last {
						t.Fatalf("a client got row k=%d after k=%d", k, last)
					} else {
						last = k
					}
				}
				held += len(h.rows)
			}
			if held == 0 || held >= len(want[4]) {
				t.Fatalf("the churned member's clients hold %d of %d rows: the churn tested nothing", held, len(want[4]))
			}
		})
	}
}

// intsOf returns the integer payloads of vals.
func intsOf(vals []tuple.Value) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = v.I
	}
	return out
}

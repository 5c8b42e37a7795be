package core

import (
	"fmt"
	"testing"

	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

// Pins for FeedMany's fan-out: a subscriber's clones of a run come from one
// pool take into a stack buffer, so a warm run allocates nothing and the
// pool counts it as it counted one clone at a time.

// fanOutStream creates stream s(a, b, c) and attaches subs raw subscriber
// queues to it the way a query attaches its inputs. Its history keeps 1,024
// rows, so a long warm-up leaves the log reusing its retired chunks.
func fanOutStream(t *testing.T, e *Engine, subs int) []*fjord.Conn {
	t.Helper()
	intStream(t, e, "s", "a", "b", "c")
	st, err := e.stream("s")
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*fjord.Conn, subs)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.histCap = 1 << 10
	for i := range conns {
		conns[i] = fjord.NewConn(fjord.Push, 4096)
		st.subs[-1-i] = conns[i]
	}
	return conns
}

// drainInto pops every queued clone off conns and returns it to pool.
func drainInto(pool *tuple.Pool, conns []*fjord.Conn) int {
	var buf [64]*tuple.Tuple
	n := 0
	for _, c := range conns {
		for k := c.Q.PopMany(buf[:]); k > 0; k = c.Q.PopMany(buf[:]) {
			for _, cl := range buf[:k] {
				pool.Put(cl)
			}
			n += k
		}
	}
	return n
}

func fanOutRows(n int) []*tuple.Tuple {
	rows := make([]*tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.New(tuple.Int(int64(i)), tuple.Int(1), tuple.Int(2))
	}
	return rows
}

// TestWarmFeedManyAllocatesNothing: once the pool and the history log are
// warm, a 64-row FeedMany into one subscriber or two allocates nothing (the
// parent made each subscriber's clone slice per call).
func TestWarmFeedManyAllocatesNothing(t *testing.T) {
	for _, subs := range []int{1, 2} {
		t.Run(fmt.Sprintf("subscribers=%d", subs), func(t *testing.T) {
			e := NewEngine(Options{EOs: 1})
			defer e.Stop()
			conns := fanOutStream(t, e, subs)
			rows := fanOutRows(64)
			feed := func() {
				if n, err := e.FeedMany("s", rows); n != len(rows) || err != nil {
					t.Fatalf("FeedMany fed %d of %d: %v", n, len(rows), err)
				}
				if got := drainInto(e.TuplePool(), conns); got != subs*len(rows) {
					t.Fatalf("%d clones queued, want %d", got, subs*len(rows))
				}
			}
			for i := 0; i < 1<<10; i++ {
				feed()
			}
			if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
				t.Errorf("warm 64-row FeedMany into %d subscriber(s): %v allocs per call, want 0", subs, allocs)
			}
		})
	}
}

// TestFeedRunCountsPoolTraffic: tcq_tuple_pool_gets_total and
// tcq_tuple_pool_hits_total count a run as one clone per row per
// subscriber, exactly as feeding the rows one at a time does, cold (every
// take a miss) and warm (every take a hit), across a 64-row chunk boundary.
func TestFeedRunCountsPoolTraffic(t *testing.T) {
	const subs, rows = 2, 100
	counts := func(e *Engine) (gets, hits float64) {
		for _, s := range e.Metrics().Snapshot() {
			switch s.Name {
			case "tcq_tuple_pool_gets_total":
				gets = s.Value
			case "tcq_tuple_pool_hits_total":
				hits = s.Value
			}
		}
		return gets, hits
	}
	type reading struct{ gets, hits float64 }
	run := func(t *testing.T, feed func(e *Engine, ts []*tuple.Tuple)) [2]reading {
		e := NewEngine(Options{EOs: 1})
		defer e.Stop()
		conns := fanOutStream(t, e, subs)
		ts := fanOutRows(rows)
		var out [2]reading
		for i := range out {
			feed(e, ts)
			if n := drainInto(e.TuplePool(), conns); n != subs*rows {
				t.Fatalf("%d clones queued, want %d", n, subs*rows)
			}
			out[i].gets, out[i].hits = counts(e)
		}
		return out
	}
	many := run(t, func(e *Engine, ts []*tuple.Tuple) {
		if n, err := e.FeedMany("s", ts); n != len(ts) || err != nil {
			t.Fatalf("FeedMany fed %d of %d: %v", n, len(ts), err)
		}
	})
	one := run(t, func(e *Engine, ts []*tuple.Tuple) {
		for _, r := range ts {
			if err := e.Feed("s", r); err != nil {
				t.Fatal(err)
			}
		}
	})
	want := [2]reading{{subs * rows, 0}, {2 * subs * rows, subs * rows}}
	if many != want || one != want {
		t.Errorf("pool (gets, hits) after a cold and a warm pass: FeedMany %v, Feed per row %v, want %v", many, one, want)
	}
}

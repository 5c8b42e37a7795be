package core

import (
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// TestFollowerMissesOnlyAtTheCap: a push client that does not read while
// 70,000 results are produced holds up only its own reader, which waits on
// the full channel instead of dropping rows. Once the client reads on, it
// gets every result the query's result log still held when its reader
// fetched again: rows delivered plus rows missed equal Results(), the
// missed rows are one run that the log's 65,536-row cap aged out, and
// tcq_egress_push_dropped_total counts them.
func TestFollowerMissesOnlyAtTheCap(t *testing.T) {
	const fed, batch = 70000, 1000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	intStream(t, e, "s", "x")
	q, err := e.Register(`SELECT x FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	id, ch := q.Subscribe(16)
	for i := 0; i < fed; i += batch {
		if i == batch {
			// The reader has fetched part of the first batch and waits on
			// the full channel from here on.
			waitFor(t, "the client's channel to fill", func() bool { return len(ch) == cap(ch) })
		}
		rows := make([]*tuple.Tuple, batch)
		for j := range rows {
			rows[j] = tuple.New(tuple.Int(int64(i + j)))
		}
		if _, err := e.FeedMany("s", rows); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, q, fed)

	var got []int64
	timeout := chaos.Real().After(10 * time.Second)
	for int64(len(got))+q.pushMissed.Load() < q.Results() {
		select {
		case r := <-ch:
			got = append(got, r.Vals[0].I)
		case <-timeout:
			t.Fatalf("delivered %d + missed %d of %d results", len(got), q.pushMissed.Load(), q.Results())
		}
	}
	missed := q.pushMissed.Load()
	if missed == 0 || missed > fed-1<<16 {
		t.Fatalf("missed %d rows, want some of the %d the log aged out", missed, fed-1<<16)
	}
	gaps := 0
	for i := 1; i < len(got); i++ {
		switch d := got[i] - got[i-1]; {
		case d == 1:
		case d == missed+1 && gaps == 0:
			gaps++
		default:
			t.Fatalf("row %d is x=%d after x=%d (missed %d)", i, got[i], got[i-1], missed)
		}
	}
	if got[0] != 0 || got[len(got)-1] != fed-1 || gaps != 1 {
		t.Fatalf("delivered x=%d..%d with %d gaps, want 0..%d with one", got[0], got[len(got)-1], gaps, fed-1)
	}
	if v := metricValue(t, e, fmt.Sprintf(`tcq_egress_push_dropped_total{query="%d"}`, q.ID)); v != float64(missed) {
		t.Errorf("tcq_egress_push_dropped_total = %v, want %d", v, missed)
	}
	q.Unsubscribe(id)
	for range ch {
	}
}

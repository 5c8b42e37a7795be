package egress

import (
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

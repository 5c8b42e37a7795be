package core

import (
	"testing"

	"telegraphcq/internal/tuple"
)

// TestSlidingGroupsForgetEvictedKeys: a standing sliding GROUP BY over
// ever-new keys keeps the groups of its window, not every group the stream
// has brought: the pane dictionary frees a key's slot with the last live
// pane holding it, as the rescan's buffer evicted the row.
func TestSlidingGroupsForgetEvictedKeys(t *testing.T) {
	e := NewEngine(Options{EOs: 2})
	defer e.Stop()
	intStream(t, e, "s", "id")
	q, err := e.Register(`SELECT id, COUNT(*) FROM s GROUP BY id
		for (t = 10; ; t++) { WindowIs(s, t - 9, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := q.rt.(*windowRuntime)
	if rt.panes == nil {
		t.Fatal("the sliding GROUP BY is not on the pane path")
	}
	const fed = 2000
	for id := int64(1); id <= fed; id++ {
		if err := e.Feed("s", tuple.New(tuple.Int(id))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every tuple absorbed", func() bool { return rt.absorbed[0].Load() == fed })
	// Quiesce the executor before inspecting runtime internals.
	e.Stop()
	if q.Results() < 10*(fed-20) {
		t.Errorf("%d results from %d instances of ten groups", q.Results(), fed-10)
	}
	if n := rt.panes.Slots(); n > 50 {
		t.Errorf("the group dictionary has %d slots after %d distinct keys through a 10-key window", n, fed)
	}
}

package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// TestArrangeSlotReuseUnderChurn verifies the allocator actually recycles
// lineage slots on the sequential engine: after heavy register/unregister
// churn the class's slot high-water mark stays near the peak live count
// instead of growing with total registrations.
func TestArrangeSlotReuseUnderChurn(t *testing.T) {
	e := NewEngine(Options{EOs: 2, BatchSize: 16})
	defer e.Stop()
	createSR(t, e)
	anchor, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	_ = anchor
	for i := 0; i < 300; i++ {
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave a little data so scrub passes run against real state.
		if i%50 == 0 {
			e.Feed("S", tuple.New(tuple.Int(int64(i)%5), tuple.Int(int64(i))))
		}
		if err := e.Deregister(q.ID); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	sc := e.shared["S+R|0=2"]
	e.mu.Unlock()
	sc.mu.Lock()
	high := sc.eng.(interface{ SlotHighWater() int }).SlotHighWater()
	sc.mu.Unlock()
	// Peak live membership is 2 (anchor + one churned query); the cooling
	// list can hold one generation back, so allow a little slack — but 300
	// registrations must not mint anywhere near 300 slots.
	if high > 8 {
		t.Fatalf("slot high-water = %d after 300 churned registrations, want <= 8 (reuse broken)", high)
	}
}

// classFootprint is what join classes hold in an engine: live classes,
// their arrangements and the rows they hold, subscriptions on S and R,
// series labelled with the S+R|0=2 class key, and scheduled DUs.
type classFootprint struct{ classes, arrangements, rows, subs, series, dus int }

func footprintOf(e *Engine) classFootprint {
	var f classFootprint
	e.mu.Lock()
	f.classes = len(e.shared)
	for _, name := range []string{"S", "R"} {
		st := e.streams[name]
		st.mu.Lock()
		f.subs += len(st.subs)
		st.mu.Unlock()
	}
	e.mu.Unlock()
	e.eachArrangement(func(_ *sharedClass, a *arrange.Arrangement) {
		f.arrangements++
		f.rows += a.Stats().Size
	})
	for _, s := range e.Metrics().Snapshot() {
		if strings.Contains(s.Name, `stream="S+R|0=2"`) {
			f.series++
		}
	}
	for _, eo := range e.exec.EOs() {
		f.dus += eo.DUCount()
	}
	return f
}

// TestLastMemberOutRetiresClass: deregistering a join class's last member
// retires the class — out of the engine's class map, and with it its
// arrangements and the rows they hold, its subscriptions off S and R,
// its series out of the metrics and its DU off its EO — while a member left
// behind keeps it live. Then Register and Deregister of the same key
// interleave from four goroutines: every registration lands in a live class
// (its one match arrives), and the engine ends where it began.
func TestLastMemberOutRetiresClass(t *testing.T) {
	e := twoStreamEngine(t, Options{EOs: 2, BatchSize: 8})
	defer e.Stop()
	const join = `SELECT S.v, R.w FROM S, R WHERE S.k = R.k`
	before := footprintOf(e)
	a, err := e.Register(join)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register(join + ` AND S.v > 2`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := errors.Join(e.Feed("S", tuple.New(tuple.Int(i%2), tuple.Int(i))),
			e.Feed("R", tuple.New(tuple.Int(i%2), tuple.Int(i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, a, 32)
	if err := e.Deregister(a.ID); err != nil {
		t.Fatal(err)
	}
	if f := footprintOf(e); f.classes != before.classes+1 || f.arrangements != 2 || f.rows != 16 {
		t.Fatalf("one member left: %+v, want the class live with its 2 arrangements and 16 rows", f)
	}
	if err := e.Deregister(b.ID); err != nil {
		t.Fatal(err)
	}
	if f := footprintOf(e); f.classes != before.classes || f.arrangements != 0 || f.rows != 0 ||
		f.subs != before.subs || f.series != 0 {
		t.Fatalf("after the last DEREGISTER: %+v, want %+v", f, before)
	}
	waitFor(t, "the class's DU to retire", func() bool { return footprintOf(e) == before })

	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 25; i++ {
				k := 100 + 100*g + i
				q, err := e.Register(fmt.Sprintf(`%s AND S.v = %d`, join, k))
				if err == nil {
					err = errors.Join(e.Feed("S", tuple.New(tuple.Int(k), tuple.Int(k))),
						e.Feed("R", tuple.New(tuple.Int(k), tuple.Int(k))))
				}
				for deadline := chaos.Real().Now().Add(10 * time.Second); err == nil && q.Results() < 1; {
					if chaos.Real().Now().After(deadline) {
						err = fmt.Errorf("query %d got no result: its class was not live", q.ID)
					}
					chaos.Real().Sleep(time.Millisecond)
				}
				if err == nil {
					err = e.Deregister(q.ID)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "the engine to hold no class", func() bool { return footprintOf(e) == before })
}

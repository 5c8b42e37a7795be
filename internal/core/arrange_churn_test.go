package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/arrange"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// Churn test for shared arrangements: hundreds of overlapping join queries
// register and unregister mid-stream — exercising lineage-slot scrub and
// reuse — while chaos delay/reorder sites perturb the class's input queues.
// Lineage must stay exact through it all:
//
//   - an anchor query registered before any data sees the complete match
//     multiset, exactly once each (a scrub touching a live slot would lose
//     rows; a reuse without scrub would add ghost rows);
//   - every churned query's results are a duplicate-free subset of the true
//     match set (a reused slot inheriting stale stored bits would deliver a
//     match twice or deliver rows from before its registration);
//   - survivors registered at a quiescent barrier see exactly the matches
//     both of whose inputs arrived after they registered.
//
// Goroutine hygiene is enforced by the package's leakcheck TestMain.

func churnEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(Options{EOs: 2, Workers: workers, BatchSize: 16})
	createSR(t, e)
	return e
}

// wave returns S and R rows for one feed wave. Values are globally unique
// across waves (offset), so any duplicated delivery is detectable and the
// per-wave match set is computable in plain Go.
func wave(offset int64, n int64) (sRows, rRows []*tuple.Tuple, matches map[string]bool) {
	matches = make(map[string]bool)
	for i := int64(0); i < n; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%5), tuple.Int(offset+i)))
	}
	for j := int64(0); j < n; j++ {
		rRows = append(rRows, tuple.New(tuple.Int(j%5), tuple.Int(offset+1000+j)))
	}
	for _, s := range sRows {
		for _, r := range rRows {
			if s.Vals[0].AsInt() == r.Vals[0].AsInt() {
				matches[fmt.Sprintf("[%v %v]", s.Vals[1], r.Vals[1])] = true
			}
		}
	}
	return
}

func fetchJoinRows(t *testing.T, q *RunningQuery) []string {
	t.Helper()
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res))
	for i, r := range res {
		rows[i] = fmt.Sprint(r.Vals)
	}
	return rows
}

func testArrangeChurn(t *testing.T, workers int) {
	e := churnEngine(t, workers)
	defer e.Stop()

	anchor, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}

	// Perturb the feed at the ingress boundary: delays and reorders (never
	// drops or dups — the multiset must survive bit-identical).
	inj := chaos.New(chaos.Config{Seed: 17, Delay: 0.02, Reorder: 0.25}, nil)
	e.mu.Lock()
	sc := e.shared["S+R|0=2"]
	e.mu.Unlock()
	if sc == nil {
		t.Fatal("anchor query did not create the shared join class")
	}
	sites := map[string]*chaos.Site{
		"S": inj.Site("churn/S"),
		"R": inj.Site("churn/R"),
	}
	feedChaos := func(stream string, ts []*tuple.Tuple) {
		site := sites[stream]
		buf := make([]*tuple.Tuple, 0, len(ts)+1)
		keep := func(tt *tuple.Tuple) bool { buf = append(buf, tt); return true }
		for _, tt := range ts {
			site.PerturbSend(tt, keep)
		}
		site.Flush(keep) // release a held reorder slot at the wave tail
		if _, err := e.FeedMany(stream, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Wave 1: feed while churning 200 queries through the class. Each
	// churned query registers, lives briefly, and unregisters — freeing its
	// lineage slot for scrub and reuse.
	s1, r1, m1 := wave(0, 40)
	var wg sync.WaitGroup
	churned := make(chan *RunningQuery, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := e.Deregister(q.ID); err != nil {
					t.Error(err)
					return
				}
			} else {
				churned <- q
			}
		}
		close(churned)
	}()
	for i := 0; i < len(s1); i += 8 {
		hi := i + 8
		if hi > len(s1) {
			hi = len(s1)
		}
		feedChaos("S", s1[i:hi])
		feedChaos("R", r1[i:hi])
	}
	wg.Wait()

	// The anchor predates all data: it must converge to exactly the wave-1
	// match multiset despite 200 slot lifecycles around its bit.
	waitFor(t, "anchor results", func() bool { return anchor.Results() >= int64(len(m1)) })
	rows := fetchJoinRows(t, anchor)
	if len(rows) != len(m1) {
		t.Fatalf("anchor: %d rows, want %d", len(rows), len(m1))
	}
	seen := make(map[string]bool)
	for _, r := range rows {
		if seen[r] {
			t.Fatalf("anchor: duplicate result %q", r)
		}
		seen[r] = true
		if !m1[r] {
			t.Fatalf("anchor: ghost result %q not in expected match set", r)
		}
	}

	// Mid-stream churn survivors: results must be a duplicate-free subset
	// of the true matches (registration time bounds what they can see).
	for q := range churned {
		qRows := fetchJoinRows(t, q)
		qSeen := make(map[string]bool)
		for _, r := range qRows {
			if qSeen[r] {
				t.Fatalf("churned query %d: duplicate result %q", q.ID, r)
			}
			qSeen[r] = true
			if !m1[r] {
				t.Fatalf("churned query %d: ghost result %q", q.ID, r)
			}
		}
		if err := e.Deregister(q.ID); err != nil {
			t.Fatal(err)
		}
	}

	// Quiescent barrier: register fresh survivors, then feed wave 2. Every
	// wave-2 input postdates their registration, so each must see exactly
	// the wave-2 matches — stored wave-1 tuples do not carry their bits.
	var survivors []*RunningQuery
	for i := 0; i < 5; i++ {
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
		if err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, q)
	}
	s2, r2, m2 := wave(10000, 20)
	feedChaos("S", s2)
	feedChaos("R", r2)
	want2 := make([]string, 0, len(m2))
	for r := range m2 {
		want2 = append(want2, r)
	}
	sort.Strings(want2)
	for _, q := range survivors {
		q := q
		waitFor(t, "survivor results", func() bool { return q.Results() >= int64(len(m2)) })
		got := fetchJoinRows(t, q)
		sort.Strings(got)
		if len(got) != len(want2) {
			t.Fatalf("survivor %d: %d rows, want %d", q.ID, len(got), len(want2))
		}
		for i := range want2 {
			if got[i] != want2[i] {
				t.Fatalf("survivor %d: row %d = %q, want %q", q.ID, i, got[i], want2[i])
			}
		}
	}

	// Chaos actually fired (the sites saw traffic) — otherwise the test
	// silently degrades to a no-chaos run.
	if len(inj.Trace()) == 0 {
		t.Fatalf("no chaos events recorded; sites not wired")
	}
}

func TestArrangeChurnSequential(t *testing.T) { testArrangeChurn(t, 1) }

func TestArrangeChurnParallel(t *testing.T) { testArrangeChurn(t, 4) }

// TestArrangeSlotReuseUnderChurn verifies the allocator actually recycles
// lineage slots on the sequential engine: after heavy register/unregister
// churn the class's slot high-water mark stays near the peak live count
// instead of growing with total registrations.
func TestArrangeSlotReuseUnderChurn(t *testing.T) {
	e := churnEngine(t, 1)
	defer e.Stop()
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
// registry arrangements and the rows they hold, subscriptions on S and R,
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
	e.arrReg.Each(func(_ arrange.Key, a *arrange.Arrangement) {
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
// retires the class — out of the engine's class map, its arrangements and
// the rows they hold out of the registry, its subscriptions off S and R,
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

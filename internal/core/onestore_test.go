package core

import (
	"fmt"
	"testing"

	"telegraphcq/internal/tuple"
)

// Pins for "one home for join state" (DESIGN.md): what the arrangement
// being every SteM's store, and every shared class taking its lineage slots
// from arrange.Slots, must and must not change at the engine's surface.

// twoStreamEngine starts an engine with the S(k, v) / R(k, w) pair.
func twoStreamEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	createSR(t, e)
	return e
}

func metricValue(t *testing.T, e *Engine, name string) float64 {
	t.Helper()
	for _, s := range e.Metrics().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

func waitResults(t *testing.T, q *RunningQuery, want int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d results", want), func() bool { return q.Results() >= want })
	if got := q.Results(); got != want {
		t.Fatalf("results = %d, want %d", got, want)
	}
}

// TestLineageSlotsReusedAtDefaultOptions: a selection class at Options{}
// reuses the lineage slots of deregistered queries, so its bitmaps stay one
// word wide under churn instead of growing a bit per registration for ever
// (5,000 cycles used to leave 79 words of lineage on every tuple).
func TestLineageSlotsReusedAtDefaultOptions(t *testing.T) {
	e := twoStreamEngine(t, Options{})
	defer e.Stop()
	standing, err := e.Register(`SELECT v FROM S WHERE v >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 5000
	for i := 0; i < cycles; i++ {
		q, err := e.Register(`SELECT v FROM S WHERE v > 10`)
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if err := e.Feed("S", tuple.New(tuple.Int(1), tuple.Int(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Deregister(q.ID); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	sc := e.shared["S"]
	e.mu.Unlock()
	sc.mu.Lock()
	high := sc.eng.(interface{ SlotHighWater() int }).SlotHighWater()
	sc.mu.Unlock()
	// Peak live membership is 2; the cooling list holds one generation back.
	if high > 8 {
		t.Fatalf("slot high-water = %d after %d register/deregister cycles, want <= 8", high, cycles)
	}
	// The standing query lost nothing and gained nothing through the churn.
	waitResults(t, standing, cycles/1000)
}

// TestArrangementCountCountsRegistryOnly: a private eddy's SteMs own their
// arrangements, which no registry lists — tcq_arrangement_* and tcq.arrange
// keep describing shared classes only, and read zero at default flags with
// a join running.
func TestArrangementCountCountsRegistryOnly(t *testing.T) {
	e := twoStreamEngine(t, Options{})
	defer e.Stop()
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.rt.(*eddyRuntime); !ok {
		t.Fatalf("default-flag equijoin runs on %T, want a private eddy", q.rt)
	}
	for i := int64(0); i < 20; i++ {
		if err := e.Feed("S", tuple.New(tuple.Int(i%4), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
		if err := e.Feed("R", tuple.New(tuple.Int(i%4), tuple.Int(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, q, 20*20/4)
	for _, name := range []string{"tcq_arrangement_count", "tcq_arrangement_readers"} {
		if v := metricValue(t, e, name); v != 0 {
			t.Errorf("%s = %v with only a private join running, want 0", name, v)
		}
	}
	if v := metricValue(t, e, fmt.Sprintf(`tcq_stem_size{query="%d",stem="S"}`, q.ID)); v != 20 {
		t.Errorf("tcq_stem_size for S = %v, want the 20 rows its private arrangement holds", v)
	}
}

// TestTenThousandCQsShareTwoArrangements is the shared-arrangements claim
// as a count (McSherry et al.; experiment E16): however many equijoin CQs
// overlap on a stream pair, the registry holds one arrangement per stream,
// each CQ costs two reader handles, and the one CQ whose selection matches
// still sees every result.
func TestTenThousandCQsShareTwoArrangements(t *testing.T) {
	const cqs, keys, rRows, sRows = 10000, 64, 64, 2000
	e := twoStreamEngine(t, Options{EOs: 2, BatchSize: 32, SharedArrangements: true})
	defer e.Stop()
	probe, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	// The rest subscribe to the same build with bounds no fed value meets.
	var idle *RunningQuery
	for i := 1; i < cqs; i++ {
		if idle, err = e.Register(fmt.Sprintf(
			`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > %d`, 1_000_000_000+i%keys)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rRows; i++ { // one R row per key
		if err := e.Feed("R", tuple.New(tuple.Int(i%keys), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < sRows; i++ {
		if err := e.Feed("S", tuple.New(tuple.Int(i%keys), tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, probe, sRows)
	if got := idle.Results(); got != 0 {
		t.Errorf("a CQ whose bound nothing meets received %d results", got)
	}
	if v := metricValue(t, e, "tcq_arrangement_count"); v != 2 {
		t.Errorf("tcq_arrangement_count = %v with %d overlapping CQs, want 2", v, cqs)
	}
	if v := metricValue(t, e, "tcq_arrangement_readers"); v != 2*cqs {
		t.Errorf("tcq_arrangement_readers = %v, want %d (two per CQ)", v, 2*cqs)
	}
}

// TestArenaBlocksReturnAfterRetention settles ROADMAP item 3's question:
// tuple.Arena's free list is live. Output blocks come back when their rows
// age out of the pull log's 65,536-row retention and the next Get reuses
// them; a run that publishes fewer rows than that (E17's 20,064) returns
// none, which is all its 0 reuses / 0 releases ever meant.
func TestArenaBlocksReturnAfterRetention(t *testing.T) {
	e := twoStreamEngine(t, Options{Columnar: true})
	defer e.Stop()
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := q.rt.(*colRuntime)
	if !ok {
		t.Fatalf("Columnar on but the join runs on %T", q.rt)
	}
	const keys, perKeyR, perKeyS = 10, 50, 300 // 150,000 results: past the cap twice over
	var rRows, sRows []*tuple.Tuple
	for i := int64(0); i < keys*perKeyR; i++ {
		rRows = append(rRows, tuple.New(tuple.Int(i%keys), tuple.Int(i)))
	}
	for i := int64(0); i < keys*perKeyS; i++ {
		sRows = append(sRows, tuple.New(tuple.Int(i%keys), tuple.Int(i)))
	}
	if err := e.FeedMany("R", rRows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sRows); i += 100 {
		if err := e.FeedMany("S", sRows[i:i+100]); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, q, keys*perKeyR*perKeyS)

	gets, reuses, releases := rt.ArenaStats()
	t.Logf("arena after %d results: gets=%d reuses=%d releases=%d", q.Results(), gets, reuses, releases)
	if releases == 0 || reuses == 0 {
		t.Fatalf("arena gets=%d reuses=%d releases=%d after %d results: no block came back",
			gets, reuses, releases, q.Results())
	}
	for name, want := range map[string]int64{
		"tcq_arena_gets_total": gets, "tcq_arena_reuses_total": reuses, "tcq_arena_releases_total": releases,
	} {
		if got := metricValue(t, e, fmt.Sprintf(`%s{query="%d"}`, name, q.ID)); int64(got) != want {
			t.Errorf("%s = %v, ArenaStats says %d", name, got, want)
		}
	}
}

package core

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"telegraphcq/internal/arrange"
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

// TestArrangementCountCountsRegistryOnly: a default-flag two-stream
// equijoin and a self-join are members of two classes, each with two
// arrangements in the registry, one per FROM position (the self-join's
// named by alias) — tcq_arrangement_count reads 4 with both running, each
// member holds a reader on each of its class's two, and the classes'
// tcq_stem_size series report the rows S's arrangements hold.
func TestArrangementCountCountsRegistryOnly(t *testing.T) {
	e := twoStreamEngine(t, Options{})
	defer e.Stop()
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	self, err := e.Register(`SELECT a.v, b.v FROM S a, S b WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.rt.(sharedMember); !ok || q.label != "shared:S+R|0=2" {
		t.Fatalf("default-flag equijoin runs on %T as %s, want a member of class S+R|0=2", q.rt, q.label)
	}
	if _, ok := self.rt.(sharedMember); !ok || self.label != "shared:S a+S b|0=2" {
		t.Fatalf("self-join runs on %T as %s, want a member of class S a+S b|0=2", self.rt, self.label)
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
	waitResults(t, self, 20*20/4)
	for name, want := range map[string]float64{
		"tcq_arrangement_count":                        4,
		"tcq_arrangement_readers":                      4,
		`tcq_stem_size{stream="S+R|0=2",stem="S"}`:     20,
		`tcq_stem_size{stream="S a+S b|0=2",stem="b"}`: 20,
	} {
		if v := metricValue(t, e, name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// TestTenThousandCQsShareTwoArrangements is the shared-arrangements claim
// as a count (McSherry et al.; experiment E16): however many equijoin CQs
// overlap on a stream pair, the registry holds one arrangement per stream,
// each CQ costs two reader handles, and the one CQ whose selection matches
// still sees every result.
func TestTenThousandCQsShareTwoArrangements(t *testing.T) {
	const cqs, keys, rRows, sRows = 10000, 64, 64, 2000
	e := twoStreamEngine(t, Options{EOs: 2, BatchSize: 32})
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

// steadyStateAllocsPerTuple feeds the S ⋈ R equijoin 8,000 S rows past a
// warm-up and returns the process's heap allocations per fed row, the best
// of three engines (a collection inside the window empties the sync.Pool
// behind the tuple recycler and charges the refill to the steady state).
// Every input is built before the window opens, so the count is the
// engine's own. The warm-up has to reach the recycler's high-water mark:
// FeedMany clones a whole 512-row chunk before pushing and the input queue
// holds 4,096, so about queue+chunk clones are in flight before the first
// recycles come back.
func steadyStateAllocsPerTuple(t *testing.T) float64 {
	t.Helper()
	const keys, rRows, warm, sRows, chunk = 64, 64, 6144, 8000, 512
	rows := func(from, n int64) []*tuple.Tuple {
		in := make([]*tuple.Tuple, 0, n)
		for i := from; i < from+n; i++ {
			in = append(in, tuple.New(tuple.Int(i%keys), tuple.Int(i)))
		}
		return in
	}
	chunks := func(in []*tuple.Tuple) [][]*tuple.Tuple {
		var out [][]*tuple.Tuple
		for ; len(in) > chunk; in = in[chunk:] {
			out = append(out, in[:chunk])
		}
		return append(out, in)
	}
	rIn, warmIn, sIn := rows(0, rRows), chunks(rows(0, warm)), chunks(rows(warm, sRows))

	best := -1.0
	for trial := 0; trial < 3; trial++ {
		e := twoStreamEngine(t, Options{EOs: 2, Workers: 1, BatchSize: 32})
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
		if err != nil {
			t.Fatal(err)
		}
		if q.label != "shared:S+R|0=2" {
			t.Fatalf("the equijoin runs as %s, want a member of class S+R|0=2", q.label)
		}
		feed := func(stream string, parts ...[]*tuple.Tuple) {
			for _, in := range parts {
				if _, err := e.FeedMany(stream, in); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One R row per key: every S row joins exactly once.
		feed("R", rIn)
		feed("S", warmIn...)
		waitFor(t, "the warm-up's results", func() bool { return q.Results() >= warm })

		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		feed("S", sIn...)
		waitFor(t, "the measured rows' results", func() bool { return q.Results() >= warm+sRows })
		goruntime.ReadMemStats(&after)
		e.Stop()
		if got := q.Results(); got != warm+sRows {
			t.Fatalf("%d results, want %d", got, warm+sRows)
		}
		if a := float64(after.Mallocs-before.Mallocs) / sRows; best < 0 || a < best {
			best = a
		}
	}
	return best
}

// TestJoinSteadyStateAllocs bounds what a default-flag equijoin, a member
// of its class, costs per fed tuple once the tuple pool is warm: the
// subscriber clone comes back to the pool, the wide row is drawn from it and
// goes back once its routing ends (the arrangement keeps its values, not
// the row), S rows borrow their class's lineage template, the arrangement
// keeps that very template and the match shares it, the match is drawn from
// the pool too, and the member's projected row is reused once the pull log
// has encoded it, and each SteM module reuses its probe batch's match slice.
// What is left is the arrangement's chunks and index growth: 0.01 here, 0.20
// while each probe batch grew a match slice of its own, 2.20 while the
// arrangement held the wide row and each match was allocated, 4.20 while the
// log held a pointer per result. Merge cloning
// the shared lineage for every match measured one allocation more (5.21
// against 4.20).
func TestJoinSteadyStateAllocs(t *testing.T) {
	got := steadyStateAllocsPerTuple(t)
	t.Logf("allocs per fed tuple through the class equijoin: %.2f", got)
	if got > 0.3 {
		t.Errorf("class equijoin allocates %.2f objects per fed tuple at steady state, want <= 0.3", got)
	}
}

// threeIntStreams creates S(k, a, b) and R(k, c, d), both of three INTs;
// joinThreeInts registers their equijoin, a class member.
func threeIntStreams(t *testing.T, e *Engine) {
	t.Helper()
	intStream(t, e, "S", "k", "a", "b")
	intStream(t, e, "R", "k", "c", "d")
}

func joinThreeInts(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.Register(`SELECT S.a, R.c FROM S, R WHERE S.k = R.k`); err != nil {
		t.Fatal(err)
	}
}

// feedJoinSides feeds rows [from, to) to each side of joinThreeInts's
// equijoin — S keys even, R keys odd, so nothing matches — and waits until
// its arrangements hold them all.
func feedJoinSides(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for side, stream := range []string{"S", "R"} {
		in := make([]*tuple.Tuple, 0, to-from)
		for i := from; i < to; i++ {
			in = append(in, tuple.New(tuple.Int(int64(2*i+side)), tuple.Int(int64(i%1000)), tuple.Int(-int64(i))))
		}
		if _, err := e.FeedMany(stream, in); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, fmt.Sprintf("%d stored rows", 2*to), func() bool { return storedRows(e) == 2*to })
}

// storedRows sums the rows every live class's arrangements hold.
func storedRows(e *Engine) int {
	n := 0
	e.eachArrangement(func(_ *sharedClass, a *arrange.Arrangement) { n += a.Len() })
	return n
}

// TestArrangementBytesGauge: tcq_arrangement_bytes reports what the class's
// arrangements hold — nothing before a class exists, and for 10,000 rows of
// three INTs on each side of an equijoin between 20 and 120 bytes a stored
// row, chunk capacity and index together.
func TestArrangementBytesGauge(t *testing.T) {
	const n = 10000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	threeIntStreams(t, e)
	if b := metricValue(t, e, "tcq_arrangement_bytes"); b != 0 {
		t.Errorf("tcq_arrangement_bytes = %v with no class, want 0", b)
	}
	joinThreeInts(t, e)
	feedJoinSides(t, e, 0, n)
	bytes := metricValue(t, e, "tcq_arrangement_bytes")
	t.Logf("%.1f bytes of arrangement per stored row", bytes/(2*n))
	if per := bytes / (2 * n); per < 20 || per > 120 {
		t.Errorf("tcq_arrangement_bytes = %v: %.1f bytes a stored row, want 20 to 120", bytes, per)
	}
}

// TestJoinStoredBytesPerRow bounds the live heap a class equijoin gains per
// stored row of three INTs — the arrangement's encoded values and index and
// whatever else the class keeps — with the streams' history logs (their own
// gauge) taken out. An arrangement holding the wide row took about 470
// bytes a row.
func TestJoinStoredBytesPerRow(t *testing.T) {
	const warm, n = 4000, 20000
	e := NewEngine(Options{EOs: 1})
	defer e.Stop()
	threeIntStreams(t, e)
	joinThreeInts(t, e)
	heap := func() (live, history float64) {
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc), metricValue(t, e, `tcq_stream_history_bytes{stream="S"}`) +
			metricValue(t, e, `tcq_stream_history_bytes{stream="R"}`)
	}
	feedJoinSides(t, e, 0, warm)
	live0, hist0 := heap()
	feedJoinSides(t, e, warm, warm+n)
	live1, hist1 := heap()
	per := (live1 - live0 - (hist1 - hist0)) / (2 * n)
	t.Logf("%.1f bytes of live heap per stored row (history %.1f)", per, (hist1-hist0)/(2*n))
	if per >= 100 {
		t.Errorf("the class equijoin holds %.1f bytes of live heap per stored row, want under 100", per)
	}
}

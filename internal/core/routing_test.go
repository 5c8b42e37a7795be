package core

import (
	"strings"
	"testing"

	"telegraphcq/internal/eddy"
	"telegraphcq/internal/tuple"
)

// newThreeWayEngine builds the TestThreeWayJoinCQ topology — a join chain
// A.k=B.k AND B.j=C.j through three SteMs — under the given options and
// feeds the fixed dataset producing exactly 24 results.
func newThreeWayEngine(t *testing.T, opts Options) (*Engine, *RunningQuery) {
	t.Helper()
	e := NewEngine(opts)
	t.Cleanup(e.Stop)
	intStream(t, e, "A", "k", "va")
	intStream(t, e, "B", "k", "j")
	intStream(t, e, "C", "j", "vc")
	q, err := e.Register(`SELECT A.va, C.vc FROM A, B, C
		WHERE A.k = B.k AND B.j = C.j`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		e.Feed("A", tuple.New(tuple.Int(i%2), tuple.Int(i)))
	}
	for i := int64(0); i < 4; i++ {
		e.Feed("B", tuple.New(tuple.Int(i%2), tuple.Int(i%2)))
	}
	for i := int64(0); i < 4; i++ {
		e.Feed("C", tuple.New(tuple.Int(i%2), tuple.Int(i)))
	}
	return e, q
}

// TestNWayRoutingEquivalence runs the three-way join under every policy
// kind with N-way probe-order planning on, and checks each configuration
// produces exactly the sequential-lottery result count: the k-ary probe
// chain and doomed-intermediate pruning change the work, never the output
// multiset.
func TestNWayRoutingEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		routing eddy.RoutingConfig
	}{
		{"legacy", eddy.RoutingConfig{}},
		{"lottery-nway", eddy.RoutingConfig{Kind: "lottery"}},
		{"selectivity-nway", eddy.RoutingConfig{Kind: "selectivity", Every: 4}},
		{"fixing-nway", eddy.RoutingConfig{Kind: "fixing", Refresh: 32}},
		{"fixed-order", eddy.RoutingConfig{Kind: "fixed", Order: []int{2, 1, 0}}},
		{"naive-no-nway", eddy.RoutingConfig{Kind: "naive", NoNWay: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, q := newThreeWayEngine(t, Options{EOs: 1, Routing: tc.routing})
			waitFor(t, "24 three-way results", func() bool { return q.Results() == 24 })
			st, ok := q.EddyStats()
			if !ok {
				t.Fatal("no eddy stats")
			}
			nwayOn := !tc.routing.IsZero() && !tc.routing.NoNWay
			if nwayOn && st.Orders == 0 {
				t.Errorf("%s: N-way enabled but no ChooseOrder plans drawn", tc.name)
			}
			if !nwayOn && (st.Orders != 0 || st.NWayPruned != 0) {
				t.Errorf("%s: N-way off but orders=%d pruned=%d", tc.name, st.Orders, st.NWayPruned)
			}
			if nwayOn && st.NWayPruned == 0 {
				// B tuples can probe SteM(A) and SteM(C): after the chosen
				// hop the sibling must have been pruned at least once.
				t.Errorf("%s: expected doomed-intermediate pruning on a 3-way join", tc.name)
			}
		})
	}
}

// TestSetQueryPolicyLive swaps the routing policy of a running three-way
// join mid-stream and checks the engine keeps producing correct results and
// reports the new policy in its telemetry.
func TestSetQueryPolicyLive(t *testing.T) {
	e, q := newThreeWayEngine(t, Options{EOs: 1})
	waitFor(t, "24 three-way results", func() bool { return q.Results() == 24 })

	if err := e.SetQueryPolicy(q.ID, "selectivity every=8"); err != nil {
		t.Fatal(err)
	}
	qt := q.Telemetry()
	if qt.Policy != "selectivity" {
		t.Fatalf("telemetry policy = %q after SET POLICY, want selectivity", qt.Policy)
	}
	if len(qt.Order) != 3 || !strings.Contains(strings.Join(qt.Order, ">"), "SteM") {
		t.Fatalf("telemetry order = %v, want three SteMs", qt.Order)
	}

	// More data after the swap. A B row probes both SteM(A) and SteM(C), so
	// it forces an N-way probe-order plan: k=0 matches 3 A rows, j=0
	// matches 2 C rows → +6 results.
	e.Feed("B", tuple.New(tuple.Int(0), tuple.Int(0)))
	waitFor(t, "30 results after policy swap", func() bool { return q.Results() == 30 })
	st, _ := q.EddyStats()
	if st.Orders == 0 {
		t.Error("swapped-in policy never planned an N-way order")
	}

	if err := e.SetQueryPolicy(q.ID, "warlock"); err == nil {
		t.Error("bad policy kind accepted")
	}
	if err := e.SetQueryPolicy(9999, "lottery"); err == nil {
		t.Error("unknown query id accepted")
	}
}

// TestRoutingThreadsAllRuntimes drives every runtime a plan can land on
// through the one control-plane contract: Options.Routing must reach each
// eddy host (not just the inline private eddy), Telemetry must be labelled
// and non-empty whatever executes the query, EddyStats must have the same
// shape on every eddy-backed row, and SET POLICY must either apply or
// return the one "no adaptive routing layer" error.
func TestRoutingThreadsAllRuntimes(t *testing.T) {
	const join = `SELECT S.v, R.w FROM S, R WHERE S.k = R.k`
	for _, tc := range []struct {
		name    string
		opts    Options
		query   string
		label   string
		hasEddy bool
		shards  int      // ParallelStats worker count; 0 = inline host or no eddy
		modules []string // names that must appear among the telemetry rows
	}{
		{"private/workers=1", Options{}, join, "q0", true, 0, []string{"SteM(S)", "SteM(R)"}},
		{"private/workers=4", Options{Workers: 4}, join, "q0", true, 4, []string{"SteM(S)", "SteM(R)"}},
		{"shared/workers=1", Options{}, `SELECT v FROM S WHERE v > 2`, "shared:S", true, 0, []string{"GF(S.v)"}},
		{"shared/workers=4", Options{Workers: 4}, `SELECT v FROM S WHERE v > 2`, "shared:S", true, 4, []string{"GF(S.v)"}},
		{"windowed", Options{}, `SELECT COUNT(*) FROM S for (t = 4; ; t += 4) { WindowIs(S, t - 3, t); }`,
			"q0", false, 0, []string{"Window(S)", "Fire"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.EOs = 1
			tc.opts.Routing = eddy.RoutingConfig{Kind: "selectivity"}
			e := NewEngine(tc.opts)
			defer e.Stop()
			createSR(t, e)
			q, err := e.Register(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 16; i++ {
				e.Feed("S", tuple.New(tuple.Int(i%4), tuple.Int(i)))
				e.Feed("R", tuple.New(tuple.Int(i%4), tuple.Int(i)))
			}
			waitFor(t, "results", func() bool { return q.Results() >= 4 })

			qt, err := e.ExplainQuery(q.ID)
			if err != nil {
				t.Fatal(err)
			}
			if qt.Label != tc.label || qt.HasEddy != tc.hasEddy || len(qt.Modules) == 0 {
				t.Fatalf("telemetry label=%q hasEddy=%v modules=%d, want %q %v non-empty",
					qt.Label, qt.HasEddy, len(qt.Modules), tc.label, tc.hasEddy)
			}
			var names []string
			var visits int64
			for _, m := range qt.Modules {
				if m.Owner != tc.label {
					t.Errorf("row %q owned by %q, want %q", m.Module, m.Owner, tc.label)
				}
				names = append(names, m.Module)
				visits += m.Visits
			}
			for _, want := range tc.modules {
				if !strings.Contains(strings.Join(names, ","), want) {
					t.Errorf("telemetry rows %v lack %s", names, want)
				}
			}
			if visits == 0 {
				t.Errorf("telemetry rows report no work: %+v", qt.Modules)
			}
			if ps, ok := q.ParallelStats(); ok != (tc.shards > 0) || ps.Workers != tc.shards {
				t.Errorf("ParallelStats ok=%v workers=%d, want %d shards", ok, ps.Workers, tc.shards)
			}

			st, ok := q.EddyStats()
			if ok != tc.hasEddy {
				t.Fatalf("EddyStats ok=%v, want %v", ok, tc.hasEddy)
			}
			if !tc.hasEddy {
				err := e.SetQueryPolicy(q.ID, "lottery")
				if err == nil || !strings.Contains(err.Error(), "without an adaptive routing layer") {
					t.Fatalf("SET POLICY on a runtime without an eddy: err = %v", err)
				}
				return
			}
			if st.Ingested == 0 || st.Visits == 0 || len(st.Modules) != len(qt.Modules) {
				t.Errorf("eddy stats shape: %+v against %d telemetry rows", st, len(qt.Modules))
			}
			// Inline hosts take whole drained batches; shards are fed tuple
			// by tuple behind the partitioner, so only the former must have
			// counted lineage runs.
			if tc.shards == 0 && st.Runs == 0 {
				t.Error("batch run counter empty after batched ingest")
			}
			if qt.Policy != "selectivity" {
				t.Fatalf("telemetry policy = %q, want the engine-wide selectivity", qt.Policy)
			}
			if err := e.SetQueryPolicy(q.ID, "lottery"); err != nil {
				t.Fatal(err)
			}
			qt = q.Telemetry()
			if qt.Policy != "lottery" {
				t.Fatalf("telemetry policy = %q after swap, want lottery", qt.Policy)
			}
			// Lottery tickets are part of the shape: one per module, shares
			// summing to one, on every host.
			if st, _ = q.EddyStats(); len(st.Tickets) != len(st.Modules) {
				t.Errorf("tickets = %d for %d modules", len(st.Tickets), len(st.Modules))
			}
			var shareSum float64
			for _, m := range qt.Modules {
				shareSum += m.TicketShare
			}
			if shareSum < 0.99 || shareSum > 1.01 {
				t.Errorf("ticket shares sum to %v, want ~1", shareSum)
			}
			if _, err := e.ExplainQuery(999); err == nil {
				t.Error("ExplainQuery(999) succeeded for a missing query")
			}
		})
	}
}

// driftStarVisits runs F ⋈ A ⋈ B ⋈ C (one key column per dimension) under
// one routing configuration and returns the eddy's module visits once the
// exact result count is in. Each of 32 keys is held 1, 2 and 8 times by A,
// B and C in phase 1 and 8, 2 and 1 times in phase 2 (disjoint key ranges,
// loaded up front), so a fact row matches 16 results in both phases while
// the cheapest probe order reverses. 300 fact rows per phase arrive in
// 50-row chunks with the engine draining between them, the arrival pattern
// of a continuous query: one dump would let a stale plan cover a whole phase.
func driftStarVisits(t *testing.T, routing eddy.RoutingConfig) int64 {
	t.Helper()
	const keys, chunk, rowsPerPhase, perFact, phaseBase = 32, 50, 300, 1 * 2 * 8, 1_000_000
	fanout := [2][3]int64{{1, 2, 8}, {8, 2, 1}}
	e := NewEngine(Options{EOs: 1, Workers: 1, BatchSize: 16, Routing: routing})
	defer e.Stop()
	intStream(t, e, "A", "a", "va")
	intStream(t, e, "B", "b", "vb")
	intStream(t, e, "C", "c", "vc")
	intStream(t, e, "F", "a", "b", "c")
	q, err := e.Register(`SELECT F.a, A.va FROM F, A, B, C WHERE F.a = A.a AND F.b = B.b AND F.c = C.c`)
	if err != nil {
		t.Fatal(err)
	}
	for phase, dups := range fanout {
		for i, dim := range []string{"A", "B", "C"} {
			var in []*tuple.Tuple
			for k := int64(0); k < keys; k++ {
				for r := int64(0); r < dups[i]; r++ {
					in = append(in, tuple.New(tuple.Int(int64(phase)*phaseBase+k), tuple.Int(r)))
				}
			}
			if err := e.FeedMany(dim, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fed int64
	for phase := int64(0); phase < 2; phase++ {
		for lo := int64(0); lo < rowsPerPhase; lo += chunk {
			var in []*tuple.Tuple
			for i := lo; i < lo+chunk; i++ {
				k := tuple.Int(phase*phaseBase + i%keys)
				in = append(in, tuple.New(k, k, k))
			}
			if err := e.FeedMany("F", in); err != nil {
				t.Fatal(err)
			}
			fed += chunk
			waitResults(t, q, fed*perFact)
		}
	}
	st, ok := q.EddyStats()
	if !ok {
		t.Fatal("no eddy stats: the star join is not on an eddy runtime")
	}
	return st.Visits
}

// TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift is the paper's
// adaptivity claim at probe-order granularity (§2.2, §4.3; experiment E18):
// when dimension fanouts flip [1,2,8] → [8,2,1] mid-run, each fixed probe
// order is cheapest in at most one phase, so the selectivity policy
// re-planning every 2 batches finishes the identical result count (every
// arm's is checked exactly, chunk by chunk) with strictly fewer module
// visits than all six of them. It counts visits, not seconds, so it holds
// on any machine.
func TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift(t *testing.T) {
	adaptive := driftStarVisits(t, eddy.RoutingConfig{Kind: "selectivity", Every: 2})
	// Module 0 is the fact SteM; builds are forced, so its rank is moot.
	for _, order := range [][]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}} {
		static := driftStarVisits(t, eddy.RoutingConfig{Kind: "fixed", Order: order, Every: 4})
		if adaptive >= static {
			t.Errorf("adaptive selectivity made %d module visits, fixed %v made %d: re-planning no longer pays after the flip",
				adaptive, order, static)
		}
		t.Logf("fixed %v: %d visits (adaptive %d)", order, static, adaptive)
	}
}

package core

import (
	"strings"
	"testing"

	"telegraphcq/internal/eddy"
	"telegraphcq/internal/tuple"
)

// newThreeWayEngine builds the TestThreeWayJoinCQ topology — a join chain
// A.k=B.k AND B.j=C.j through three SteMs — at default options. install,
// when set, runs on the query's eddy before the fixed dataset producing
// exactly 24 results is fed.
func newThreeWayEngine(t *testing.T, install func(*eddy.Eddy)) *RunningQuery {
	t.Helper()
	e := NewEngine(Options{EOs: 1})
	t.Cleanup(e.Stop)
	intStream(t, e, "A", "k", "va")
	intStream(t, e, "B", "k", "j")
	intStream(t, e, "C", "j", "vc")
	q, err := e.Register(`SELECT A.va, C.vc FROM A, B, C
		WHERE A.k = B.k AND B.j = C.j`)
	if err != nil {
		t.Fatal(err)
	}
	if install != nil {
		onEddy(t, q, install)
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
	return q
}

// onEddy runs fn on q's inline private eddy under the runtime lock: the one
// seam through which a test replaces the policy the routing rule chose.
func onEddy(t *testing.T, q *RunningQuery, fn func(*eddy.Eddy)) {
	t.Helper()
	var ed *eddy.Eddy
	q.rt.control(func(h eddyHost) {
		if ed, _ = h.(*eddy.Eddy); ed != nil {
			fn(ed)
		}
	})
	if ed == nil {
		t.Fatalf("query %d has no inline private eddy", q.ID)
	}
}

// TestNWayRoutingEquivalence checks the routing rule's two sides and that
// the policy changes the work, never the output multiset. At default options
// the three-way join plans whole probe orders with the selectivity policy
// and prunes doomed intermediates; every other policy installed on the same
// eddy, with planning on or routing per hop, yields the same 24 results.
// The two-stream join stays on per-hop lottery.
func TestNWayRoutingEquivalence(t *testing.T) {
	install := func(p eddy.Policy, reuse int) func(*eddy.Eddy) {
		return func(ed *eddy.Eddy) { ed.SetPolicy(p); ed.SetNWay(reuse) }
	}
	for _, tc := range []struct {
		name    string
		install func(*eddy.Eddy)
		policy  string
		nway    bool
	}{
		{"selectivity-nway", nil, "selectivity", true},
		{"lottery-nway", install(eddy.NewLotteryPolicy(1), planReuse), "lottery", true},
		{"fixed-order", install(eddy.NewFixedPolicy(2, 1, 0), planReuse), "fixed", true},
		// The engine's routing for this join before the rule: lottery seeded
		// q.ID+1, per hop.
		{"legacy", install(eddy.NewLotteryPolicy(1), 0), "lottery", false},
		// Index order per hop: the eddy's default policy.
		{"naive-no-nway", install(nil, 0), "fixed", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newThreeWayEngine(t, tc.install)
			waitFor(t, "24 three-way results", func() bool { return q.Results() == 24 })
			qt := q.Telemetry()
			if qt.Policy != tc.policy || len(qt.Order) != 3 {
				t.Fatalf("telemetry policy=%q order=%v, want %s over three SteMs", qt.Policy, qt.Order, tc.policy)
			}
			st := qt.Stats
			if tc.nway && (st.Orders == 0 || st.NWayPruned == 0) {
				// B tuples can probe SteM(A) and SteM(C): a plan must be drawn,
				// and after the chosen hop the sibling pruned at least once.
				t.Errorf("N-way planning on but orders=%d pruned=%d", st.Orders, st.NWayPruned)
			}
			if !tc.nway && (st.Orders != 0 || st.NWayPruned != 0) {
				t.Errorf("per-hop routing but orders=%d pruned=%d", st.Orders, st.NWayPruned)
			}
		})
	}
	t.Run("two-stream", func(t *testing.T) {
		e := NewEngine(Options{EOs: 1})
		defer e.Stop()
		createSR(t, e)
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 8; i++ {
			e.Feed("S", tuple.New(tuple.Int(i%2), tuple.Int(i)))
			e.Feed("R", tuple.New(tuple.Int(i%2), tuple.Int(i)))
		}
		waitFor(t, "32 two-stream results", func() bool { return q.Results() == 32 })
		if qt := q.Telemetry(); qt.Policy != "lottery" || qt.Stats.Orders != 0 {
			t.Errorf("two-stream join: policy=%q orders=%d, want lottery and no plans", qt.Policy, qt.Stats.Orders)
		}
	})
}

// TestRoutingThreadsAllRuntimes drives every runtime a plan can land on
// through the one control-plane contract: the routing rule must reach each
// eddy host (not just the inline private eddy), Telemetry must be labelled
// and non-empty whatever executes the query, EddyStats must have the same
// shape on every eddy-backed row, and the windowed runtime must report no
// eddy and no policy.
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
				if qt.Policy != "" || qt.Order != nil {
					t.Fatalf("windowed telemetry reports policy %q order %v without an eddy", qt.Policy, qt.Order)
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
			// Every host here spans fewer than three streams, so the routing
			// rule gives it the per-hop lottery, whose tickets are part of the
			// shape: one per module, shares summing to one, on every host.
			if qt.Policy != "lottery" {
				t.Fatalf("telemetry policy = %q, want lottery", qt.Policy)
			}
			if len(st.Tickets) != len(st.Modules) {
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

// driftStar runs F ⋈ A ⋈ B ⋈ C (one key column per dimension) at default
// options — with static installed as a FixedPolicy over the SteMs when
// non-nil, under the routing rule otherwise — and returns the query's
// telemetry once the exact result count is in. Each of 32 keys is held 1, 2 and 8 times by A,
// B and C in phase 1 and 8, 2 and 1 times in phase 2 (disjoint key ranges,
// loaded up front), so a fact row matches 16 results in both phases while
// the cheapest probe order reverses. 300 fact rows per phase arrive in
// 50-row chunks with the engine draining between them, the arrival pattern
// of a continuous query: one dump would let a stale plan cover a whole phase.
func driftStar(t *testing.T, static []int) QueryTelemetry {
	t.Helper()
	const keys, chunk, rowsPerPhase, perFact, phaseBase = 32, 50, 300, 1 * 2 * 8, 1_000_000
	fanout := [2][3]int64{{1, 2, 8}, {8, 2, 1}}
	e := NewEngine(Options{EOs: 1, Workers: 1, BatchSize: 16})
	defer e.Stop()
	intStream(t, e, "A", "a", "va")
	intStream(t, e, "B", "b", "vb")
	intStream(t, e, "C", "c", "vc")
	intStream(t, e, "F", "a", "b", "c")
	q, err := e.Register(`SELECT F.a, A.va FROM F, A, B, C WHERE F.a = A.a AND F.b = B.b AND F.c = C.c`)
	if err != nil {
		t.Fatal(err)
	}
	if static != nil {
		onEddy(t, q, func(ed *eddy.Eddy) { ed.SetPolicy(eddy.NewFixedPolicy(static...)) })
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
	return q.Telemetry()
}

// TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift is the paper's
// adaptivity claim at probe-order granularity (§2.2, §4.3; experiment E18),
// on the default engine: when dimension fanouts flip [1,2,8] → [8,2,1]
// mid-run, each fixed probe order is cheapest in at most one phase, so the
// selectivity policy the routing rule gives a four-stream join finishes the
// identical result count (every arm's is checked exactly, chunk by chunk)
// with strictly fewer module visits than all six of them. Visits are not
// fixed: where drain batches end varies from run to run and moves every
// arm's count. Over -count=20 the adaptive arm made 6,508 visits (17 runs)
// or 7,808 (3) and the static arms 9,208–11,608, so the tightest margin
// seen is 7,808 against 9,208; scripts/check.sh race repeats the pin 20
// times so a shrinking margin shows.
func TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift(t *testing.T) {
	qt := driftStar(t, nil)
	if qt.Policy != "selectivity" || qt.Stats.Orders == 0 {
		t.Fatalf("default four-stream join: policy=%q orders=%d, want selectivity with plans",
			qt.Policy, qt.Stats.Orders)
	}
	adaptive := qt.Stats.Visits
	// Module 0 is the fact SteM; builds are forced, so its rank is moot.
	for _, order := range [][]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}} {
		static := driftStar(t, order).Stats.Visits
		if adaptive >= static {
			t.Errorf("adaptive selectivity made %d module visits, fixed %v made %d: re-planning no longer pays after the flip",
				adaptive, order, static)
		}
		t.Logf("fixed %v: %d visits (adaptive %d)", order, static, adaptive)
	}
}

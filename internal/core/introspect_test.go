package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/introspect"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// newIntrospectEngine builds an engine with introspection on and a simple
// two-stream equijoin workload standing (a join class over two
// arrangements), fed enough data that every module has visits.
func newIntrospectEngine(t *testing.T, opts Options) (*Engine, *RunningQuery) {
	t.Helper()
	opts.Introspect = true
	e := NewEngine(opts)
	createSR(t, e)
	q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := e.Feed("S", tuple.New(tuple.Int(int64(i%8)), tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		if err := e.Feed("R", tuple.New(tuple.Int(int64(i%8)), tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "join results", func() bool { return q.Results() > 0 })
	return e, q
}

func TestIntrospectStatsCQEndToEnd(t *testing.T) {
	e, _ := newIntrospectEngine(t, Options{})
	defer e.Stop()

	// An ordinary continuous query over the engine's own telemetry: it
	// parses, binds against the catalog, joins the tcq.stats shared class,
	// and receives rows through the normal eddy/CACQ path.
	cq, err := e.Register(`SELECT * FROM tcq.stats WHERE module = 'Arr(S)'`)
	if err != nil {
		t.Fatal(err)
	}
	cur := cq.Cursor()
	e.TickIntrospection()

	var rows []*tuple.Tuple
	waitFor(t, "tcq.stats rows", func() bool {
		got, _ := cq.Fetch(cur)
		rows = append(rows, got...)
		return len(rows) > 0
	})
	schema := introspect.StatsSchema()
	modCol := schema.MustColumnIndex("module")
	qCol := schema.MustColumnIndex("query")
	visCol := schema.MustColumnIndex("visits")
	for _, r := range rows {
		if got := r.Vals[modCol].S; got != "Arr(S)" {
			t.Fatalf("WHERE module='Arr(S)' delivered module %q", got)
		}
		if got := r.Vals[qCol].S; got != "shared:S+R|0=2" {
			t.Fatalf("stats row owner = %q, want shared:S+R|0=2", got)
		}
		if r.Vals[visCol].AsInt() == 0 {
			t.Error("stats row has zero visits for a module that processed tuples")
		}
	}
}

// TestArrangeStreamFollowsLiveClasses: SELECT * FROM tcq.arrange, an
// ordinary CQ, sees one row per (class, stream) of a live join class, its
// readers the class's member count — at one worker, and at two, where the
// join class still runs on one sequential engine — and none once the last
// member has left, when the arrangement gauges read 0 too.
func TestArrangeStreamFollowsLiveClasses(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The hour-long interval keeps the background sampler from
			// ticking: every tick here is the test's own.
			e := twoStreamEngine(t, Options{Introspect: true, IntrospectInterval: time.Hour, Workers: workers})
			defer e.Stop()
			cq, err := e.Register(`SELECT * FROM tcq.arrange`)
			if err != nil {
				t.Fatal(err)
			}
			cur := cq.Cursor()
			const join = `SELECT S.v, R.w FROM S, R WHERE S.k = R.k`
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

			const want = 2
			e.TickIntrospection()
			var rows []*tuple.Tuple
			waitFor(t, "tcq.arrange rows", func() bool {
				got, _ := cq.Fetch(cur)
				rows = append(rows, got...)
				return len(rows) >= want
			})
			schema := introspect.ArrangeSchema()
			col := func(r *tuple.Tuple, name string) tuple.Value { return r.Vals[schema.MustColumnIndex(name)] }
			seen := map[string]bool{}
			var stored int64
			for _, r := range rows {
				key := col(r, "class").S + "/" + col(r, "arrangement").S
				if seen[key] {
					t.Errorf("two rows for %s in one tick", key)
				}
				seen[key] = true
				if readers := col(r, "readers").AsInt(); readers != 2 {
					t.Errorf("%s: readers = %d, want the class's 2 members", key, readers)
				}
				stored += col(r, "size").AsInt()
			}
			for _, stream := range []string{"S", "R"} {
				if key := "S+R|0=2/" + stream; !seen[key] {
					t.Errorf("no row for %s among %v", key, seen)
				}
			}
			if len(rows) != want || stored != 16 {
				t.Errorf("%d rows storing %d rows, want %d storing 16", len(rows), stored, want)
			}

			for _, q := range []*RunningQuery{a, b} {
				if err := e.Deregister(q.ID); err != nil {
					t.Fatal(err)
				}
			}
			const fed = `tcq_ingress_tuples_total{stream="tcq.arrange"}`
			before := metricValue(t, e, fed)
			e.TickIntrospection()
			if n := metricValue(t, e, fed) - before; n != 0 {
				t.Errorf("a tick after the last member left fed %v tcq.arrange rows, want 0", n)
			}
			for _, name := range []string{"tcq_arrangement_count", "tcq_arrangement_readers", "tcq_arrangement_bytes"} {
				if v := metricValue(t, e, name); v != 0 {
					t.Errorf("%s = %v after the last member left, want 0", name, v)
				}
			}
		})
	}
}

func TestIntrospectReservedPrefix(t *testing.T) {
	e := NewEngine(Options{Introspect: true})
	defer e.Stop()
	schema := tuple.NewSchema("tcq.mine", tuple.Column{Name: "x", Kind: tuple.KindInt})
	if err := e.CreateStream("tcq.mine", schema, -1); err == nil {
		t.Fatal("CreateStream accepted a name under the reserved tcq. prefix")
	}
	if err := e.CreateTable("tcq.mine", schema); err == nil {
		t.Fatal("CreateTable accepted a name under the reserved tcq. prefix")
	}
	// The introspection streams themselves are in the catalog.
	for name := range introspect.Schemas() {
		if _, err := e.Catalog().Lookup(name); err != nil {
			t.Errorf("catalog missing introspection stream %s: %v", name, err)
		}
	}
}

func TestIntrospectRoutesStreamFromTracer(t *testing.T) {
	e, _ := newIntrospectEngine(t, Options{TraceSampleRate: 1})
	defer e.Stop()

	cq, err := e.Register(`SELECT tag, emitted, path FROM tcq.routes`)
	if err != nil {
		t.Fatal(err)
	}
	cur := cq.Cursor()
	// Traces from the workload feed finished before registration; push two
	// more tuples through so fresh traces land in the ring, then tick.
	if err := e.Feed("S", tuple.New(tuple.Int(1), tuple.Int(99))); err != nil {
		t.Fatal(err)
	}
	var rows []*tuple.Tuple
	waitFor(t, "tcq.routes rows", func() bool {
		e.TickIntrospection()
		got, _ := cq.Fetch(cur)
		rows = append(rows, got...)
		return len(rows) > 0
	})
	r := rows[0]
	if r.Vals[0].S != "shared:S+R|0=2" {
		t.Errorf("route tag = %q, want shared:S+R|0=2", r.Vals[0].S)
	}
	if path := r.Vals[2].S; path == "" || path == "(no visits)" {
		t.Errorf("route path = %q, want a module-visit path", path)
	}
}

func TestIntrospectChaosStream(t *testing.T) {
	e, _ := newIntrospectEngine(t, Options{})
	defer e.Stop()
	obs := e.ChaosObserver()
	if obs == nil {
		t.Fatal("ChaosObserver nil with introspection on")
	}
	cq, err := e.Register(`SELECT site, n, fault FROM tcq.chaos`)
	if err != nil {
		t.Fatal(err)
	}
	cur := cq.Cursor()
	obs(chaos.Event{Site: "flux/node1", N: 7, Fault: chaos.Delay})
	e.TickIntrospection()
	var rows []*tuple.Tuple
	waitFor(t, "tcq.chaos rows", func() bool {
		got, _ := cq.Fetch(cur)
		rows = append(rows, got...)
		return len(rows) > 0
	})
	if rows[0].Vals[0].S != "flux/node1" || rows[0].Vals[1].AsInt() != 7 {
		t.Fatalf("chaos row = %v", rows[0].Vals)
	}
}

func TestIntrospectPoolStream(t *testing.T) {
	e, _ := newIntrospectEngine(t, Options{})
	defer e.Stop()
	cq, err := e.Register(`SELECT pool, gets FROM tcq.pool WHERE pool = 'tuple'`)
	if err != nil {
		t.Fatal(err)
	}
	cur := cq.Cursor()
	e.TickIntrospection()
	var rows []*tuple.Tuple
	waitFor(t, "tcq.pool rows", func() bool {
		got, _ := cq.Fetch(cur)
		rows = append(rows, got...)
		return len(rows) > 0
	})
	if rows[0].Vals[0].S != "tuple" {
		t.Fatalf("pool row = %v", rows[0].Vals)
	}
	if rows[0].Vals[1].AsInt() == 0 {
		t.Error("tuple pool gets = 0 after a join workload")
	}
}

func TestTopModulesOrdering(t *testing.T) {
	e, _ := newIntrospectEngine(t, Options{})
	defer e.Stop()
	top := e.TopModules(0)
	if len(top) == 0 {
		t.Fatal("TopModules empty with a standing join query")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Visits > top[i-1].Visits {
			t.Fatalf("TopModules not sorted by visits: %v", top)
		}
	}
	if capped := e.TopModules(1); len(capped) != 1 {
		t.Fatalf("TopModules(1) returned %d rows", len(capped))
	}
}

func TestIntrospectProbeTimerWired(t *testing.T) {
	e, q := newIntrospectEngine(t, Options{})
	defer e.Stop()
	// Feed enough probes that the every-64th sampler lands at least once.
	for i := 0; i < 300; i++ {
		if err := e.Feed("S", tuple.New(tuple.Int(int64(i%8)), tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "probe latency sample", func() bool {
		for _, m := range q.Telemetry().Modules {
			if m.ProbeNanos > 0 {
				return true
			}
		}
		return false
	})
	// The eddy samples every module's hops whether or not introspection is
	// on: each grouped filter and SteM reports its latency, at one worker
	// and at two, where the join class still runs sequentially.
	for _, workers := range []int{1, 2} {
		e := NewEngine(Options{Workers: workers})
		createSR(t, e)
		q, err := e.Register(`SELECT S.v, R.w FROM S, R WHERE S.k = R.k AND S.v > 3 AND R.w < 1000`)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			for _, s := range []string{"S", "R"} {
				if err := e.Feed(s, tuple.New(tuple.Int(int64(i%8)), tuple.Int(int64(i)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, fmt.Sprintf("a latency sample on every module at %d workers", workers), func() bool {
			kinds := map[string]bool{}
			for _, m := range q.Telemetry().Modules {
				kind, _, _ := strings.Cut(m.Module, "(")
				if m.ProbeNanos <= 0 {
					return false
				}
				kinds[kind] = true
			}
			return kinds["GF"] && (kinds["Arr"] || kinds["SteM"])
		})
		e.Stop()
	}
}

// TestIntrospectSharedClassStats exercises telemetry for queries running in
// a shared CACQ class (the stats owner is the class, not the member).
func TestIntrospectSharedClassStats(t *testing.T) {
	e := NewEngine(Options{Introspect: true})
	defer e.Stop()
	if err := e.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
		t.Fatal(err)
	}
	q, err := e.Register(`SELECT stockSymbol FROM ClosingStockPrices WHERE closingPrice > 50`)
	if err != nil {
		t.Fatal(err)
	}
	for d := int64(1); d <= 100; d++ {
		if err := e.Feed("ClosingStockPrices", tuple.New(
			tuple.Time(d), tuple.String_("MSFT"), tuple.Float(float64(d)))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "shared results", func() bool { return q.Results() > 0 })
	qt := q.Telemetry()
	if qt.Label != "shared:ClosingStockPrices" || !qt.HasEddy {
		t.Fatalf("telemetry = %+v", qt)
	}
	if len(qt.Modules) == 0 || qt.Stats.Ingested == 0 {
		t.Errorf("shared class telemetry empty: %+v", qt)
	}
	for _, m := range qt.Modules {
		if !strings.HasPrefix(m.Module, "GF(") {
			t.Errorf("shared module %q, want grouped filters", m.Module)
		}
	}
}

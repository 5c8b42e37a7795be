package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"telegraphcq/internal/baseline"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/core"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/gfilter"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Per-layer drivers. Every layer is measured from outside, by timing calls
// into its exported functions on inputs made by the same generators the
// workloads use (same seed). The drivers for a layer that only one
// workload exercises (eddy/stem/baseline: the join; cacq/gfilter_1000q: the
// shared CQs; window/ops: the window) always run on that workload's input,
// whichever workload the traced run is for, so every traced run reports
// every per-layer metric and the numbers compare across runs.

const layerBatch = 64 // Options.BatchSize default: the engine's own batch granularity

func timed(fn func()) float64 {
	start := clk.Now()
	fn()
	return float64(clk.Since(start))
}

// schemaOf parses a streamDef's column spec.
func schemaOf(s streamDef) (*tuple.Schema, int, error) {
	var cols []tuple.Column
	timeCol := -1
	for i, part := range strings.Split(s.cols, ",") {
		f := strings.Fields(part)
		if len(f) != 2 {
			return nil, 0, fmt.Errorf("bad column spec %q", part)
		}
		kind := map[string]tuple.Kind{"INT": tuple.KindInt, "FLOAT": tuple.KindFloat, "TIME": tuple.KindTime}[f[1]]
		if kind == 0 {
			return nil, 0, fmt.Errorf("unknown column type %q", f[1])
		}
		cols = append(cols, tuple.Column{Name: f[0], Kind: kind})
		if f[0] == s.timeCol {
			timeCol = i
		}
	}
	return tuple.NewSchema(s.name, cols...), timeCol, nil
}

// layerInput is a workload's generated tuples in the forms the drivers need.
type layerInput struct {
	w       *workloadSpec
	schemas []*tuple.Schema
	timeCol []int
	cat     *catalog.Catalog
	plans   []*sql.Plan
	recs    []rec
	csv     []string       // CSV payload per input
	narrow  []*tuple.Tuple // as ingress.ParseCSV yields them, stamped as Engine.Feed would
}

func newLayerInput(w *workloadSpec, seed uint64, n int, maxPlans int) (*layerInput, error) {
	li := &layerInput{w: w, cat: catalog.New()}
	for _, s := range w.streams {
		sc, tc, err := schemaOf(s)
		if err != nil {
			return nil, err
		}
		if _, err := li.cat.CreateStream(s.name, sc, tc); err != nil {
			return nil, err
		}
		li.schemas = append(li.schemas, sc)
		li.timeCol = append(li.timeCol, tc)
	}
	for i, text := range w.queries(n) {
		if i >= maxPlans {
			break
		}
		p, err := sql.ParseAndBind(text, li.cat)
		if err != nil {
			return nil, err
		}
		li.plans = append(li.plans, p)
	}
	ph := phases{warmEnd: n, satEnd: n, total: n, intervalNs: 1}
	var buf []byte
	seqs := make([]int64, len(w.streams))
	for i := 0; i < n; i++ {
		r := w.gen(seed, i)
		buf = appendCSV(buf[:0], w, r, ph.born(i))
		line := string(buf)
		t, err := ingress.ParseCSV(li.schemas[r.stream], line)
		if err != nil {
			return nil, err
		}
		seqs[r.stream]++
		t.Seq = seqs[r.stream]
		t.TS = t.Seq
		if tc := li.timeCol[r.stream]; tc >= 0 {
			t.TS = t.Vals[tc].AsInt()
		}
		li.recs = append(li.recs, r)
		li.csv = append(li.csv, line)
		li.narrow = append(li.narrow, t)
	}
	return li, nil
}

// wide returns fresh wide rows of the inputs under the first plan's layout.
func (li *layerInput) wide() []*tuple.Tuple { return li.wideRange(0, len(li.narrow)) }

func (li *layerInput) wideRange(from, to int) []*tuple.Tuple {
	layout := li.plans[0].Layout
	out := make([]*tuple.Tuple, to-from)
	for i := from; i < to; i++ {
		out[i-from] = layout.Widen(int(li.recs[i].stream), li.narrow[i])
	}
	return out
}

// batches cuts ts into tuple.Batch headers of the engine's batch size.
func batches(ts []*tuple.Tuple) []*tuple.Batch {
	var out []*tuple.Batch
	eachBatch(0, len(ts), func(i, end int) {
		b := tuple.NewBatch(layerBatch)
		b.Tuples = append(b.Tuples, ts[i:end]...)
		out = append(out, b)
	})
	return out
}

// eachBatch calls fn for consecutive ranges of at most layerBatch indexes
// covering [from, to).
func eachBatch(from, to int, fn func(i, end int)) {
	for i := from; i < to; i += layerBatch {
		end := i + layerBatch
		if end > to {
			end = to
		}
		fn(i, end)
	}
}

func mustWorkload(name string) *workloadSpec {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// runLayers fills res with every per-layer metric the traced run did not
// measure live.
func runLayers(res *result, o runOpts) error {
	own, err := newLayerInput(o.w, o.seed, 40000, 1000)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return layerIngress(res, own) },
		func() error { return layerCore(res, own) },
		func() error { return layerTuple(res, o.seed) },
		func() error { layerFjord(res, own); return nil },
		func() error { layerExecutor(res); return nil },
		func() error { return layerJoin(res, o.seed) },
		func() error { return layerShared(res, o.seed) },
		func() error { return layerWindow(res, o.seed) },
		func() error { layerEgress(res, own); return nil },
		func() error { return layerServer(res, o) },
		func() error { return layerReplay(res, o) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("%s: per-layer drivers: %w", o.w.name, err)
		}
	}
	return nil
}

func layerIngress(res *result, li *layerInput) error {
	parsed := make([]*tuple.Tuple, len(li.csv))
	var perr error
	ns := timed(func() {
		for i, line := range li.csv {
			t, err := ingress.ParseCSV(li.schemas[li.recs[i].stream], line)
			if err != nil {
				perr = err
				return
			}
			parsed[i] = t
		}
	})
	if perr != nil {
		return perr
	}
	res.set("ingress.parse_ns_per_tuple", ns/float64(len(li.csv)), len(li.csv))
	sink := 0
	ns = timed(func() {
		for _, t := range parsed {
			sink += len(ingress.FormatCSV(t))
		}
	})
	if sink == 0 {
		return fmt.Errorf("FormatCSV produced nothing")
	}
	res.set("ingress.format_ns_per_row", ns/float64(len(parsed)), len(parsed))
	return nil
}

// layerCore times Engine.Feed with no subscriber (stamp + history) and with
// the workload's queries registered (plus clone + enqueue + time blocked on
// a full queue), and query registration itself.
func layerCore(res *result, li *layerInput) error {
	w := li.w
	texts := w.queries(len(li.narrow))
	feedAll := func(eng *core.Engine) (float64, error) {
		// Feed stamps and retains the tuple it is given: hand it copies, made
		// before the clock starts, so later drivers see the input unchanged.
		copies := make([]*tuple.Tuple, len(li.narrow))
		for i, t := range li.narrow {
			copies[i] = t.Clone()
		}
		var ferr error
		ns := timed(func() {
			for i, t := range copies {
				if err := eng.Feed(w.streams[li.recs[i].stream].name, t); err != nil {
					ferr = err
					return
				}
			}
		})
		return ns / float64(len(copies)), ferr
	}
	newEngine := func() (*core.Engine, error) {
		eng := core.NewEngine(core.Options{})
		for i, s := range w.streams {
			if err := eng.CreateStream(s.name, li.schemas[i], li.timeCol[i]); err != nil {
				eng.Stop()
				return nil, err
			}
		}
		return eng, nil
	}

	eng, err := newEngine()
	if err != nil {
		return err
	}
	bare, err := feedAll(eng)
	eng.Stop()
	if err != nil {
		return err
	}
	res.set("core.feed_ns_per_tuple", bare, len(li.narrow))

	// Parse+bind alone, against a catalog, before any engine is involved.
	rounds := 1
	if len(texts) < 200 {
		rounds = 200 / len(texts)
	}
	var berr error
	ns := timed(func() {
		for r := 0; r < rounds; r++ {
			for _, text := range texts {
				if _, err := sql.ParseAndBind(text, li.cat); err != nil {
					berr = err
					return
				}
			}
		}
	})
	if berr != nil {
		return berr
	}
	res.set("sql.parse_bind_us_per_query", ns/1e3/float64(rounds*len(texts)), rounds*len(texts))

	if eng, err = newEngine(); err != nil {
		return err
	}
	defer eng.Stop()
	var rerr error
	ns = timed(func() {
		for _, text := range texts {
			if _, err := eng.Register(text); err != nil {
				rerr = err
				return
			}
		}
	})
	if rerr != nil {
		return rerr
	}
	res.set("core.register_us_per_query", ns/1e3/float64(len(texts)), len(texts))
	fanned, err := feedAll(eng)
	if err != nil {
		return err
	}
	res.set("core.fanout_ns_per_tuple", fanned-bare, len(li.narrow))
	return nil
}

func layerTuple(res *result, seed uint64) error {
	li, err := newLayerInput(mustWorkload("join_fetch_wire"), seed, 20000, 1)
	if err != nil {
		return err
	}
	pool := tuple.NewPool()
	const rounds = 10
	ns := timed(func() {
		for r := 0; r < rounds; r++ {
			for _, t := range li.narrow {
				pool.Put(t.CloneUsing(pool))
			}
		}
	})
	res.set("tuple.clone_ns", ns/float64(rounds*len(li.narrow)), rounds*len(li.narrow))
	layout := li.plans[0].Layout
	ns = timed(func() {
		for r := 0; r < rounds; r++ {
			for i, t := range li.narrow {
				pool.Put(layout.WidenUsing(pool, int(li.recs[i].stream), t))
			}
		}
	})
	res.set("tuple.widen_ns", ns/float64(rounds*len(li.narrow)), rounds*len(li.narrow))
	return nil
}

// layerFjord moves tuples through one queue between two goroutines: one at
// a time (what a per-tuple FEED or DB.Feed does) and in batches.
func layerFjord(res *result, li *layerInput) {
	ts := li.narrow
	const rounds = 5
	total := float64(rounds * len(ts))

	q := fjord.NewQueue(4096)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := q.PopWait(); !ok {
				return
			}
		}
	}()
	ns := timed(func() {
		for r := 0; r < rounds; r++ {
			for _, t := range ts {
				q.PushWait(t)
			}
		}
		q.Close()
		wg.Wait()
	})
	res.set("fjord.single_ns_per_tuple", ns/total, int(total))

	q = fjord.NewQueue(4096)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]*tuple.Tuple, layerBatch)
		for q.PopWaitMany(dst) > 0 {
		}
	}()
	ns = timed(func() {
		for r := 0; r < rounds; r++ {
			eachBatch(0, len(ts), func(i, end int) { q.PushWaitMany(ts[i:end]) })
		}
		q.Close()
		wg.Wait()
	})
	res.set("fjord.batch_ns_per_tuple", ns/total, int(total))
}

// layerExecutor times the scheduler's loop around a dispatch unit that
// always has (no) work to do.
func layerExecutor(res *result) {
	x := executor.New(1)
	eo := x.Submit([]string{"bench"}, &executor.FuncDU{DUName: "noop", Fn: func() (bool, bool) { return true, false }})
	start := clk.Now()
	s0 := eo.Steps()
	clk.Sleep(150 * time.Millisecond)
	steps := eo.Steps() - s0
	elapsed := clk.Since(start)
	x.Stop()
	res.set("executor.step_ns", float64(elapsed)/float64(steps), int(steps))
}

// layerJoin drives the join plan's modules: the eddy over a SteM pair, the
// SteMs alone on the same input, and the static hash join as the reference
// line for what adaptivity costs.
func layerJoin(res *result, seed uint64) error {
	const prefill, n = 160000, 40000
	li, err := newLayerInput(mustWorkload("join_fetch_wire"), seed, prefill+n, 1)
	if err != nil {
		return err
	}
	plan := li.plans[0]
	if len(plan.Joins) != 1 {
		return fmt.Errorf("join plan has %d edges", len(plan.Joins))
	}
	j := plan.Joins[0]
	layout := plan.Layout

	// Eddy over the SteM pair, state pre-filled to mid-run size.
	modA, modB := ops.BuildSteMPair(layout, j.StreamA, j.StreamB, j.ColA, j.ColB, plan.TimeKind)
	results := 0
	ed := eddy.New(plan.Footprint, eddy.NewLotteryPolicy(1), func(*tuple.Tuple) { results++ }, modA, modB)
	wide := li.wide()
	for _, b := range batches(wide[:prefill]) {
		ed.IngestBatch(b)
	}
	before := ed.Stats()
	timedBatches := batches(wide[prefill:])
	eddyNs := timed(func() {
		for _, b := range timedBatches {
			ed.IngestBatch(b)
		}
	})
	after := ed.Stats()
	if results == 0 {
		return fmt.Errorf("eddy produced no join result")
	}
	res.set("eddy.ingest_ns_per_tuple", eddyNs/n, n)
	res.set("eddy.visits_per_tuple", float64(after.Visits-before.Visits)/n, n)
	res.set("eddy.decisions_per_tuple", float64(after.Decisions-before.Decisions)/n, n)

	// The SteMs alone: build into the tuple's own SteM, probe the other.
	stems := [2]*stem.SteM{
		stem.New("orders", tuple.SingleSource(0), layout, stem.WithIndex(j.ColA)),
		stem.New("pays", tuple.SingleSource(1), layout, stem.WithIndex(j.ColB)),
	}
	keyCol := [2]int{j.ColA, j.ColB}
	preds := [2][]expr.JoinPredicate{
		{{LeftCol: j.ColA, Op: expr.Eq, RightCol: j.ColB}}, // an order probing pays
		{{LeftCol: j.ColB, Op: expr.Eq, RightCol: j.ColA}}, // a payment probing orders
	}
	runs := func(ts []*tuple.Tuple, recs []rec, fn func(s int, run []*tuple.Tuple)) {
		// Lineage-homogeneous runs, as the eddy's enqueueRuns cuts them.
		for i := 0; i < len(ts); {
			k := i
			for k < len(ts) && k-i < layerBatch && recs[k].stream == recs[i].stream {
				k++
			}
			fn(int(recs[i].stream), ts[i:k])
			i = k
		}
	}
	// Live heap held per stored tuple, its wide row included.
	var memBefore, memAfter runtime.MemStats
	wide = nil
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	var berr error
	runs(li.wideRange(0, prefill), li.recs[:prefill], func(s int, run []*tuple.Tuple) {
		if err := stems[s].BuildBatch(run); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return berr
	}
	runtime.GC()
	runtime.ReadMemStats(&memAfter)
	res.set("stem.bytes_per_tuple", float64(memAfter.HeapAlloc-memBefore.HeapAlloc)/prefill, prefill)
	wide = li.wideRange(prefill, prefill+n)

	var buildNs, probeNs float64
	matches := 0
	var out []*tuple.Tuple
	runs(wide, li.recs[prefill:], func(s int, run []*tuple.Tuple) {
		buildNs += timed(func() {
			if err := stems[s].BuildBatch(run); err != nil {
				berr = err
			}
		})
		probeNs += timed(func() {
			out = stems[1-s].ProbeBatch(run, keyCol[s], preds[s], out[:0])
		})
		matches += len(out)
	})
	if berr != nil {
		return berr
	}
	if matches == 0 {
		return fmt.Errorf("SteM probes matched nothing")
	}
	res.set("stem.build_ns_per_tuple", buildNs/n, n)
	res.set("stem.probe_ns_per_tuple", probeNs/n, n)
	res.set("eddy.self_ns_per_tuple", (eddyNs-buildNs-probeNs)/n, n)

	// Static plan, single-threaded, same input.
	hj := baseline.NewHashJoin(layout, j.ColA, j.ColB, nil, nil)
	wide = li.wide()
	for i, t := range wide[:prefill] {
		hj.Ingest(int(li.recs[i].stream), t)
	}
	joined := 0
	ns := timed(func() {
		for i, t := range wide[prefill:] {
			joined += len(hj.Ingest(int(li.recs[prefill+i].stream), t))
		}
	})
	if joined == 0 {
		return fmt.Errorf("baseline hash join produced nothing")
	}
	res.set("baseline.hashjoin_ns_per_tuple", ns/n, n)
	return nil
}

// layerShared drives the grouped filter (1 and 1,000 queries) and the CACQ
// engine (1,000 queries) on the shared-CQ input.
func layerShared(res *result, seed uint64) error {
	const n = 40000
	li, err := newLayerInput(mustWorkload("shared_cqs_embedded"), seed, n, sharedCQs)
	if err != nil {
		return err
	}
	layout := li.plans[0].Layout
	priceCol := li.plans[0].Selections[0].Col

	gfilterRun := func(nq int) (float64, error) {
		g := gfilter.New(priceCol, tuple.SingleSource(0))
		for q := 0; q < nq; q++ {
			for _, p := range li.plans[q].Selections {
				g.Add(q, p)
			}
		}
		m := gfilter.NewModule("price", g)
		lineage := tuple.NewBitset(nq)
		lineage.SetAll(nq)
		wide := li.wide()
		for _, t := range wide {
			t.Queries = lineage.Clone()
		}
		bs := batches(wide)
		passed := 0
		ns := timed(func() {
			for _, b := range bs {
				_, p := m.ProcessBatch(b)
				passed += p
			}
		})
		if nq == sharedCQs && passed != n {
			return 0, fmt.Errorf("grouped filter passed %d of %d tuples", passed, n)
		}
		return ns / n, nil
	}
	one, err := gfilterRun(1)
	if err != nil {
		return err
	}
	res.set("gfilter.probe_ns_per_tuple_1q", one, n)
	all, err := gfilterRun(sharedCQs)
	if err != nil {
		return err
	}
	res.set("gfilter.probe_ns_per_tuple_1000q", all, n)

	eng, err := cacq.New(layout, nil, eddy.NewLotteryPolicy(1))
	if err != nil {
		return err
	}
	delivered := 0
	var aerr error
	ns := timed(func() {
		for _, p := range li.plans {
			if _, err := eng.AddQuery(p.Footprint, p.Selections, p.Project, func(*tuple.Tuple) { delivered++ }); err != nil {
				aerr = err
				return
			}
		}
	})
	if aerr != nil {
		return aerr
	}
	res.set("cacq.add_query_us", ns/1e3/float64(len(li.plans)), len(li.plans))
	ns = timed(func() {
		eachBatch(0, n, func(i, end int) { eng.IngestBatch(0, li.narrow[i:end]) })
	})
	res.set("cacq.ingest_ns_per_tuple", ns/n, n)
	res.set("cacq.deliveries_per_tuple", float64(delivered)/n, n)
	if delivered != n {
		return fmt.Errorf("cacq delivered %d rows for %d tuples, reference says one each", delivered, n)
	}
	return nil
}

// layerWindow replays what windowRuntime does per drain on the window
// input: AddBatch, and per fire Range, widen, Compute, Evict.
func layerWindow(res *result, seed uint64) error {
	const n = 30000
	li, err := newLayerInput(mustWorkload("window_agg_embedded"), seed, n, 1)
	if err != nil {
		return err
	}
	plan := li.plans[0]
	buf := window.NewBuffer(plan.TimeKind)
	agg := ops.NewAggregator(plan.GroupBy, plan.Aggs...)
	var addNs, rangeNs, evictNs, aggNs float64
	fires, scanned, held, outRows := 0, 0, 0, 0
	nextT := int64(windowSpan)
	eachBatch(0, n, func(i, end int) {
		batch := li.narrow[i:end]
		addNs += timed(func() { buf.AddBatch(batch) })
		if buf.Len() > held {
			held = buf.Len()
		}
		for maxTS := li.narrow[end-1].TS; nextT <= maxTS; nextT += windowStep {
			var rows []*tuple.Tuple
			rangeNs += timed(func() { rows = buf.Range(nextT-windowSpan+1, nextT) })
			wide := make([]*tuple.Tuple, len(rows))
			for k, t := range rows {
				wide[k] = plan.Layout.Widen(0, t)
			}
			aggNs += timed(func() { outRows += len(agg.Compute(wide)) })
			scanned += len(rows)
			fires++
			left := nextT + windowStep - windowSpan + 1
			evictNs += timed(func() { buf.Evict(left) })
		}
	})
	if fires == 0 || outRows == 0 {
		return fmt.Errorf("window driver fired %d instances, %d rows", fires, outRows)
	}
	res.set("window.add_ns_per_tuple", addNs/n, n)
	res.set("window.range_ns_per_fire", rangeNs/float64(fires), fires)
	res.set("window.evict_ns_per_fire", evictNs/float64(fires), fires)
	res.set("window.rows_held_max", float64(held), 0)
	res.set("window.rows_scanned_per_tuple", float64(scanned)/n, n)
	res.set("ops.agg_ns_per_row", aggNs/float64(scanned), scanned)
	return nil
}

// layerEgress times both egress kinds on the workload's own tuples: push
// with one draining subscriber; the pull log empty and at its retention
// cap, in batches of 64 and of 1.
func layerEgress(res *result, li *layerInput) {
	ts := li.narrow
	push := egress.NewPushEgress()
	id, ch := push.Subscribe(1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
		}
	}()
	ns := timed(func() {
		for i := 0; i+layerBatch <= len(ts); i += layerBatch {
			push.PublishBatch(ts[i : i+layerBatch])
		}
	})
	push.Unsubscribe(id)
	wg.Wait()
	res.set("egress.push_publish_ns_per_row", ns/float64(len(ts)/layerBatch*layerBatch), len(ts))

	const retention = 1 << 16 // NewPullEgress's default, the one every query gets
	pull := egress.NewPullEgress(0)
	rows := 0
	ns = timed(func() {
		for i := 0; i+layerBatch <= len(ts) && rows+layerBatch < retention; i += layerBatch {
			pull.PublishBatch(ts[i:i+layerBatch], false)
			rows += layerBatch
		}
	})
	res.set("egress.pull_publish_ns_per_row_empty_b64", ns/float64(rows), rows)

	for i := 0; pull.Len() < retention; i = (i + layerBatch) % (len(ts) - layerBatch) {
		pull.PublishBatch(ts[i:i+layerBatch], false)
	}
	cursor := pull.RegisterAt(0)
	const capBatches = 100
	ns = timed(func() {
		for b := 0; b < capBatches; b++ {
			i := (b * layerBatch) % (len(ts) - layerBatch)
			pull.PublishBatch(ts[i:i+layerBatch], false)
		}
	})
	res.set("egress.pull_publish_ns_per_row_atcap_b64", ns/(capBatches*layerBatch), capBatches*layerBatch)
	const singles = 1000
	ns = timed(func() {
		for b := 0; b < singles; b++ {
			pull.PublishBatch(ts[b%len(ts):b%len(ts)+1], false)
		}
	})
	res.set("egress.pull_publish_ns_per_row_atcap_b1", ns/singles, singles)
	fetched := 0
	ns = timed(func() {
		got, _, _ := pull.Fetch(cursor) // the cursor was registered above: Fetch cannot fail
		fetched = len(got)
	})
	res.set("egress.pull_fetch_ns_per_row", ns/float64(fetched), fetched)
}

// layerServer times the wire protocol alone against a tcqd of its own:
// pipelined FEED with no query registered, unpipelined FEED round trips,
// and FETCH of a known number of rows.
func layerServer(res *result, o runOpts) error {
	proc, err := startTcqd(o.tcqdBin)
	if err != nil {
		return err
	}
	defer proc.stop()
	conn, err := net.Dial("tcp", proc.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 256*1024)
	roundTrip := func(line string) (string, error) {
		if _, err := io.WriteString(conn, line+"\n"); err != nil {
			return "", err
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		if strings.HasPrefix(reply, "ERR") {
			return "", fmt.Errorf("%s: %s", firstWord(line), strings.TrimSpace(reply))
		}
		return strings.TrimSpace(reply), nil
	}
	if _, err := roundTrip("CREATE STREAM S (k INT, v INT, born INT)"); err != nil {
		return err
	}
	w := mustWorkload("filter_push_wire")
	const n = 30000
	var lines []byte
	for i := 0; i < n; i++ {
		lines = appendFeedLine(lines, w, w.gen(o.seed, i), int64(i))
	}
	// pipelined sends lines and reads one reply per FEED concurrently.
	pipelined := func() (float64, error) {
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				reply, err := r.ReadSlice('\n')
				if err != nil {
					errc <- err
					return
				}
				if reply[0] != 'O' {
					errc <- fmt.Errorf("FEED: %s", strings.TrimSpace(string(reply)))
					return
				}
			}
			errc <- nil
		}()
		var werr error
		ns := timed(func() {
			_, werr = conn.Write(lines)
			if rerr := <-errc; werr == nil {
				werr = rerr
			}
		})
		return ns, werr
	}
	ns, err := pipelined()
	if err != nil {
		return err
	}
	res.set("server.feed_ns_per_tuple", ns/n, n)

	const rtts = 1000
	rtt := make([]float64, rtts)
	for i := range rtt {
		start := clk.Now()
		if _, err := roundTrip("FEED S " + strconv.Itoa(i) + ",1," + strconv.Itoa(i)); err != nil {
			return err
		}
		rtt[i] = float64(clk.Since(start)) / 1e3
	}
	res.set("server.feed_rtt_us", median(rtt), rtts)

	reply, err := roundTrip("QUERY SELECT k, v, born FROM S")
	if err != nil {
		return err
	}
	var qid int
	if _, err := fmt.Sscanf(reply, "OK QUERYID %d", &qid); err != nil {
		return fmt.Errorf("QUERY: bad reply %q", reply)
	}
	if _, err := pipelined(); err != nil {
		return err
	}
	// Results are produced asynchronously: fetch until all n rows have come,
	// timing only the FETCH round trips that returned rows.
	fetched, fetchNs := 0, 0.0
	for deadline := clk.Now().Add(30 * time.Second); fetched < n; {
		if clk.Now().After(deadline) {
			return fmt.Errorf("FETCH: %d of %d rows after 30s", fetched, n)
		}
		rows := 0
		ns := timed(func() {
			if _, err = io.WriteString(conn, fmt.Sprintf("FETCH %d\n", qid)); err != nil {
				return
			}
			for {
				var line []byte
				if line, err = r.ReadSlice('\n'); err != nil {
					return
				}
				if line[0] != 'R' {
					return // END (or ERR: rows stays 0 and the deadline reports it)
				}
				rows++
			}
		})
		if err != nil {
			return err
		}
		if rows > 0 {
			fetched += rows
			fetchNs += ns
		} else {
			clk.Sleep(time.Millisecond)
		}
	}
	res.set("server.fetch_ns_per_row", fetchNs/float64(fetched), fetched)
	_, _ = io.WriteString(conn, "QUIT\n") // best effort: the deferred Close ends the session anyway
	return nil
}

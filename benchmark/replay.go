package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"telegraphcq/internal/core"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/tuple"
)

// layerReplay replays the traced run's own input through the layers' public
// functions inside the harness — ingress.ParseCSV, Engine.Feed, the wait for
// the drain, Query.Fetch, ingress.FormatCSV — with a span around each call,
// at the engine's default options. It yields the embedded end-to-end cost per
// tuple that server.self_ns_per_tuple and trace.layer_sum_ratio are measured
// against.
func layerReplay(res *result, o runOpts) error {
	w := o.w
	ph := planPhases(w, o.seconds, true)
	li, err := newLayerInput(w, o.seed, ph.satEnd, 0)
	if err != nil {
		return err
	}
	in := &input{w: w, ph: ph, recs: li.recs}
	exp := w.ref(in, o.seed)
	tr := newTracer(w.name + "-replay")

	eng := core.NewEngine(core.Options{})
	defer eng.Stop()
	for i, s := range w.streams {
		if err := eng.CreateStream(s.name, li.schemas[i], li.timeCol[i]); err != nil {
			return err
		}
	}
	var queries []*core.RunningQuery
	for _, text := range w.queries(ph.total) {
		q, err := eng.Register(text)
		if err != nil {
			return err
		}
		queries = append(queries, q)
	}
	counts := func() ([]int64, error) {
		out := make([]int64, len(queries))
		for i, q := range queries {
			out[i] = q.Results()
		}
		return out, nil
	}
	await := func(want []int64) error {
		if ok, _ := awaitCounts(counts, want, 60*time.Second); !ok {
			return fmt.Errorf("replay: engine-side result counts differ from the reference")
		}
		return nil
	}

	// Consumers, as the workload has them: push subscribers drain (and, on
	// the wire, format) concurrently; pull cursors are fetched by the feed
	// loop below.
	var wg sync.WaitGroup
	var cursors []int
	var subs []func()
	for _, qi := range exp.subscribed {
		q := queries[qi]
		if !w.push {
			cursors = append(cursors, q.Cursor())
			continue
		}
		id, ch := q.Subscribe(1024)
		subs = append(subs, func() { q.Unsubscribe(id) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if w.wire {
					_ = ingress.FormatCSV(t) // the row's cost, not its text, is what is replayed
				}
			}
		}()
	}
	defer func() {
		for _, unsub := range subs {
			unsub()
		}
		wg.Wait()
	}()

	fetch := func(parent int) {
		for i, cur := range cursors {
			id := tr.begin("Query.Fetch", parent)
			rows, err := queries[exp.subscribed[i]].Fetch(cur)
			tr.end(id, len(rows))
			if err != nil || !w.wire {
				continue
			}
			id = tr.begin("ingress.FormatCSV", parent)
			for _, t := range rows {
				_ = ingress.FormatCSV(t) // as above
			}
			tr.end(id, len(rows))
		}
	}
	feed := func(from, to, parent int) error {
		batch := make([]*tuple.Tuple, 0, layerBatch)
		for i := from; i < to; i += layerBatch {
			end := i + layerBatch
			if end > to {
				end = to
			}
			batch = batch[:0]
			if w.wire {
				id := tr.begin("ingress.ParseCSV", parent)
				for k := i; k < end; k++ {
					t, err := ingress.ParseCSV(li.schemas[li.recs[k].stream], li.csv[k])
					if err != nil {
						return err
					}
					batch = append(batch, t)
				}
				tr.end(id, end-i)
			} else {
				batch = append(batch, li.narrow[i:end]...)
			}
			id := tr.begin("Engine.FeedMany", parent)
			for k, t := range batch {
				// One tuple per call: what a FEED line or a DB.Feed does.
				if err := eng.Feed(w.streams[li.recs[i+k].stream].name, t); err != nil {
					return err
				}
			}
			tr.end(id, end-i)
			if (i/layerBatch)%16 == 15 {
				fetch(parent)
			}
		}
		return nil
	}

	if err := feed(0, ph.warmEnd, 0); err != nil {
		return err
	}
	if err := await(exp.counts(ph.warmEnd)); err != nil {
		return err
	}
	fetch(0)
	runtime.GC()

	n := ph.satEnd - ph.warmEnd
	root := tr.begin("replay.sat", 0)
	cpu0, start := selfCPUNs(), clk.Now()
	if err := feed(ph.warmEnd, ph.satEnd, root); err != nil {
		return err
	}
	id := tr.begin("drain_wait", root)
	err = await(exp.counts(ph.satEnd))
	tr.end(id, 0)
	if err != nil {
		return err
	}
	fetch(root)
	wallNs := float64(clk.Since(start)) / float64(n)
	cpuNs := float64(selfCPUNs()-cpu0) / float64(n)
	tr.end(root, n)
	if _, err := tr.write(o.outDir); err != nil {
		return err
	}

	// The replay's figure is a mean over its whole run, so it is set against
	// the wire run's whole sat phase, not against its better half.
	var satNs, satTuples float64
	for _, sl := range res.Slices {
		satNs += float64(sl.ElapsedNs)
		satTuples += float64(sl.Tuples)
	}
	wireNs := satNs / satTuples
	res.set("server.self_ns_per_tuple", wireNs-wallNs, n)

	sum, shares := layerSum(res, w, cpuNs)
	res.set("trace.layer_sum_ratio", sum/cpuNs, n)
	res.Shares = shares
	res.Notes = append(res.Notes, fmt.Sprintf("replay: %.0f ns/tuple wall, %.0f ns/tuple CPU over %d tuples", wallNs, cpuNs, n))
	return nil
}

// layerSum adds up, per input tuple, the busy time of the layers on the
// workload's path as the isolated drivers measured them, and returns each
// term's share of the replay's CPU per tuple. rows is result rows per input
// tuple; the pull-egress term uses the batch size the workload's runtime
// actually publishes with (CACQ delivery and window fires publish row by
// row, the private eddy publishes a drain's output at once).
func layerSum(res *result, w *workloadSpec, replayCPUNs float64) (float64, map[string]float64) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	type term struct {
		layer string
		ns    float64
	}
	terms := []term{
		{"core", m("core.feed_ns_per_tuple") + m("core.fanout_ns_per_tuple")},
	}
	if w.wire {
		terms = append(terms, term{"ingress", m("ingress.parse_ns_per_tuple")})
	}
	var rows float64
	switch w.name {
	case "filter_push_wire":
		rows = 0.5
		terms = append(terms,
			term{"tuple", m("tuple.widen_ns")},
			term{"gfilter", m("gfilter.probe_ns_per_tuple_1q")},
			term{"egress", rows * (m("egress.push_publish_ns_per_row") + m("egress.pull_publish_ns_per_row_atcap_b1"))},
			term{"ingress", rows * m("ingress.format_ns_per_row")})
	case "join_fetch_wire":
		rows = 0.5
		terms = append(terms,
			term{"tuple", m("tuple.widen_ns")},
			term{"eddy", m("eddy.self_ns_per_tuple")},
			term{"stem", m("stem.build_ns_per_tuple") + m("stem.probe_ns_per_tuple")},
			term{"egress", rows * (m("egress.pull_publish_ns_per_row_atcap_b64") + m("egress.pull_fetch_ns_per_row"))},
			term{"ingress", rows * m("ingress.format_ns_per_row")})
	case "shared_cqs_embedded":
		rows = 1
		terms = append(terms,
			term{"cacq", m("cacq.ingest_ns_per_tuple") - m("gfilter.probe_ns_per_tuple_1000q")},
			term{"gfilter", m("gfilter.probe_ns_per_tuple_1000q")},
			term{"egress", rows * (m("egress.pull_publish_ns_per_row_empty_b64") + float64(sharedSubs)/sharedCQs*m("egress.push_publish_ns_per_row"))})
	case "window_agg_embedded":
		rows = float64(windowSyms) / windowStep
		terms = append(terms,
			term{"window", m("window.add_ns_per_tuple") + (m("window.range_ns_per_fire")+m("window.evict_ns_per_fire"))/windowStep},
			term{"ops", m("ops.agg_ns_per_row") * m("window.rows_scanned_per_tuple")},
			term{"tuple", m("tuple.widen_ns") * m("window.rows_scanned_per_tuple")},
			term{"egress", rows * (m("egress.pull_publish_ns_per_row_atcap_b1") + m("egress.pull_fetch_ns_per_row"))})
	}
	var sum float64
	shares := map[string]float64{}
	for _, t := range terms {
		sum += t.ns
		shares[t.layer] += t.ns / replayCPUNs
	}
	return sum, shares
}

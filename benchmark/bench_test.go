package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsArePureFunctionsOfSeedAndIndex(t *testing.T) {
	for _, w := range workloads {
		differs := false
		for i := 0; i < 5000; i++ {
			a, b := w.gen(7, i), w.gen(7, i)
			if a != b {
				t.Fatalf("%s: gen(7,%d) gave %v then %v", w.name, i, a, b)
			}
			if w.gen(8, i) != a {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same 5000 tuples", w.name)
		}
	}
}

func TestJoinGeneratorShape(t *testing.T) {
	// Keys are a bijection inside each shuffle block.
	seen := make(map[int64]bool, joinBlock)
	for i := 0; i < joinBlock; i++ {
		k := joinKey(3, i)
		if k < 0 || k >= joinBlock || seen[k] {
			t.Fatalf("joinKey(3,%d) = %d: out of block or repeated", i, k)
		}
		seen[k] = true
	}
	// joinLag orders first, then order/payment alternate; payment p pays order p.
	for i := 0; i < joinLag; i++ {
		if genJoin(3, i).stream != 0 {
			t.Fatalf("element %d should be an order", i)
		}
	}
	for p := 0; p < 100; p++ {
		o, pay := genJoin(3, joinLag+2*p), genJoin(3, joinLag+2*p+1)
		if o.stream != 0 || pay.stream != 1 {
			t.Fatalf("elements %d,%d: streams %d,%d, want 0,1", joinLag+2*p, joinLag+2*p+1, o.stream, pay.stream)
		}
		if pay.c[0] != joinKey(3, p) {
			t.Fatalf("payment %d has key %d, want order %d's key %d", p, pay.c[0], p, joinKey(3, p))
		}
	}
}

func TestBornRoundTrip(t *testing.T) {
	ph := phases{warmEnd: 5, satEnd: 10, total: 20, intervalNs: 250}
	for i := 0; i < ph.total; i++ {
		got, ok := ph.idxOfBorn(ph.born(i))
		if !ok || got != i {
			t.Errorf("idxOfBorn(born(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, b := range []int64{125, 250 * 10, -1, -notPacedOffset - 1} {
		if idx, ok := ph.idxOfBorn(b); ok {
			t.Errorf("idxOfBorn(%d) = %d, want not found", b, idx)
		}
	}
	if ph.born(9) >= 0 || ph.born(10) != 0 || ph.born(12) != 500 {
		t.Errorf("born(9), born(10), born(12) = %d, %d, %d", ph.born(9), ph.born(10), ph.born(12))
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := relSpread([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("relSpread = %v, want 2.625", got)
	}
}

func TestLatencyOverAllSamplesAndMedianSecond(t *testing.T) {
	v := &verifier{lat: make([][]float64, 5)}
	for seg, mid := range []float64{9, 2, 7, 1, 3} {
		v.lat[seg] = []float64{mid - 0.5, mid, mid + 0.5}
	}
	all, n := v.latencyAll()
	if got := percentile(all, 50); got != 3 || n != 15 {
		t.Errorf("median of all samples = %v over %d, want 3 over 15", got, n)
	}
	if got := v.latencySegMedian(50); got != 3 {
		t.Errorf("latencySegMedian(50) = %v, want 3 (the median second)", got)
	}
	if got := v.latencySegMedian(100); got != 3.5 {
		t.Errorf("latencySegMedian(100) = %v, want 3.5", got)
	}
}

func TestSummarizeSat(t *testing.T) {
	// Four slices of 1,000 tuples: 1, 2, 4 and 8 s of wall time, 10, 20, 30
	// and 80 ms of CPU, at index 1, 0.5, 1 and 1.
	sum := summarizeSat([]satSlice{
		{Tuples: 1000, ElapsedNs: 1e9, CPUNs: 10e6, Index: 1},
		{Tuples: 1000, ElapsedNs: 2e9, CPUNs: 20e6, Index: 0.5},
		{Tuples: 1000, ElapsedNs: 4e9, CPUNs: 30e6, Index: 1},
		{Tuples: 1000, ElapsedNs: 8e9, CPUNs: 80e6, Index: 1},
	})
	// Slice rates 1000, 500, 250, 125 raw and 1000, 1000, 250, 125 at index
	// 1.0: the faster half averages 750 and 1000.
	if sum.rawRate != 750 || sum.normRate != 1000 {
		t.Errorf("rate of the faster half: raw %v, normalised %v, want 750 and 1000", sum.rawRate, sum.normRate)
	}
	// CPU 10, 20, 30, 80 us/tuple raw and 10, 10, 30, 80 at index 1.0: the
	// cheaper half averages 15 and 10.
	if sum.rawCPU != 15 || sum.normCPU != 10 {
		t.Errorf("cpu us/tuple of the cheaper half: raw %v, normalised %v, want 15 and 10", sum.rawCPU, sum.normCPU)
	}
	// The whole phase at index 1.0: 4,000 tuples in 1+1+4+8 s and 10+10+30+80 ms.
	if math.Abs(sum.phaseRate-4000.0/14) > 1e-9 || math.Abs(sum.phaseCPU-32.5) > 1e-9 {
		t.Errorf("whole phase: %v tuples/s, %v us/tuple, want 285.71 and 32.5", sum.phaseRate, sum.phaseCPU)
	}
	// Normalised slice rates 1000, 1000, 250, 125: median 625.
	if math.Abs(sum.spread-875.0/625) > 1e-9 {
		t.Errorf("slice spread %v, want (1000-125)/625", sum.spread)
	}
	// An odd number of slices: the middle one belongs to the better half.
	if got := betterHalfMean([]float64{5, 1, 3}, true); got != 2 {
		t.Errorf("betterHalfMean({5,1,3}, lower) = %v, want 2", got)
	}
	if got := betterHalfMean([]float64{5, 1, 3}, false); got != 4 {
		t.Errorf("betterHalfMean({5,1,3}, higher) = %v, want 4", got)
	}
}

func TestCPUTicks(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc/stat here: the harness never waits for a calm machine")
	}
	busy, stolen := cpuTicks()
	if busy <= 0 || stolen < 0 || stolen > busy {
		t.Errorf("cpuTicks() = busy %d, stolen %d", busy, stolen)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "e", Start: 90, End: 120}, // clipped to the parent
	}
	want := []int64{100 - 40 - 10 - 10, 20, 10, 10, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if sum[0].Name != "parent" || sum[0].SelfNs != 40 || sum[0].TotalNs != 100 {
		t.Errorf("summary[0] = %+v", sum[0])
	}
}

func TestTracerNilAndPaused(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", 0), 1) // must not panic
	tr := newTracer("w")
	tr.off.Store(true)
	if id := tr.begin("skipped", 0); id != 0 {
		t.Errorf("paused tracer opened span %d", id)
	}
	tr.off.Store(false)
	id := tr.begin("kept", 0)
	tr.end(id, 7)
	if ns, count := tr.total("kept"); count != 7 || ns < 0 || len(tr.spans) != 1 {
		t.Errorf("total = %d ns, %d count, %d spans", ns, count, len(tr.spans))
	}
}

// handInput builds an input from explicit recs: warm [0,5), sat [5,10),
// paced [10,20) at 1000 ns intervals.
func handInput(w *workloadSpec, recs []rec) *input {
	return &input{w: w, ph: phases{warmEnd: 5, satEnd: 10, total: len(recs), intervalNs: 1000}, recs: recs}
}

func TestReferenceFilterByHand(t *testing.T) {
	vs := []int64{499, 500, 0, 999, 250, 501, 1, 498, 750, 300, 100, 900, 499, 500, 2, 600, 700, 3, 800, 4}
	recs := make([]rec, len(vs))
	for i, v := range vs {
		recs[i] = rec{c: [3]int64{int64(1000 + i), v}}
	}
	in := handInput(mustWorkload("filter_push_wire"), recs)
	e := refFilter(in)
	for i, v := range vs {
		if e.rows[i].want != (v < 500) {
			t.Errorf("tuple %d (v=%d): want=%v", i, v, e.rows[i].want)
		}
	}
	if got := e.rows[12].row; got != (row{i: [4]int64{1012, 499, 2000}}) {
		t.Errorf("row 12 = %+v", got)
	}
	// v<500 at 0,2,4 | 6,7,9 | 10,12,14,17,19
	for idxEnd, want := range map[int]int64{5: 3, 10: 6, 20: 11} {
		if got := e.counts(idxEnd)[0]; got != want {
			t.Errorf("counts(%d) = %d, want %d", idxEnd, got, want)
		}
	}
}

func TestReferenceJoinByHand(t *testing.T) {
	o := func(k, v int64) rec { return rec{stream: 0, c: [3]int64{k, v}} }
	p := func(k, w int64) rec { return rec{stream: 1, c: [3]int64{k, w}} }
	recs := []rec{
		o(1, 10), o(2, 20), p(1, 7), o(3, 30), p(3, 9), // 0..4
		p(5, 1), o(5, 50), p(2, 8), o(4, 40), p(9, 9), // 5..9: 5 pays before its order; 9 never ordered
		p(4, 6), o(6, 60), p(6, 5), o(7, 70), o(8, 80), // 10..14
		p(8, 4), p(7, 3), o(10, 1), o(11, 2), p(10, 2), // 15..19
	}
	in := handInput(mustWorkload("join_fetch_wire"), recs)
	e := refJoin(in)
	b := in.ph.born
	want := map[int]row{
		2:  {i: [4]int64{1, 10, 7, b(2)}},
		4:  {i: [4]int64{3, 30, 9, b(4)}},
		6:  {i: [4]int64{5, 50, 1, b(5)}}, // completed by the order, carries the payment's born
		7:  {i: [4]int64{2, 20, 8, b(7)}},
		10: {i: [4]int64{4, 40, 6, b(10)}},
		12: {i: [4]int64{6, 60, 5, b(12)}},
		15: {i: [4]int64{8, 80, 4, b(15)}},
		16: {i: [4]int64{7, 70, 3, b(16)}},
		19: {i: [4]int64{10, 1, 2, b(19)}},
	}
	for i := range recs {
		w, ok := want[i]
		if e.rows[i].want != ok {
			t.Errorf("slot %d: want=%v, expected %v", i, e.rows[i].want, ok)
		} else if ok && e.rows[i].row != w {
			t.Errorf("slot %d = %+v, want %+v", i, e.rows[i].row, w)
		}
	}
	if got := e.counts(10)[0]; got != 4 {
		t.Errorf("counts(10) = %d, want 4", got)
	}
}

func TestReferenceSharedByHand(t *testing.T) {
	prices := []int64{0, 99, 100, 199, 200, 54321, 99999, 99900, 50000, 49999, 1, 101, 54300, 54399, 54400, 12345, 12300, 12399, 12400, 77777}
	recs := make([]rec, len(prices))
	for i, p := range prices {
		recs[i] = rec{c: [3]int64{int64(i % 50), p}}
	}
	in := handInput(mustWorkload("shared_cqs_embedded"), recs)
	e := refShared(in, []int{0, 543, 999})
	wantQ := []int{0, 0, 1, 1, 2, 543, 999, 999, 500, 499, 0, 1, 543, 543, 544, 123, 123, 123, 124, 777}
	for i, q := range wantQ {
		r := e.rows[i]
		if !r.want || r.q != q || r.i != [4]int64{int64(i % 50), prices[i], in.ph.born(i)} {
			t.Errorf("tuple %d (price %d): got q=%d row=%v want=%v, expected q=%d", i, prices[i], r.q, r.i, r.want, q)
		}
		if r.obs != (q == 0 || q == 543 || q == 999) {
			t.Errorf("tuple %d: obs=%v for CQ %d", i, r.obs, q)
		}
	}
	c := e.counts(20)
	if c[0] != 3 || c[543] != 3 || c[999] != 2 || c[123] != 3 || c[5] != 0 {
		t.Errorf("counts: q0=%d q543=%d q999=%d q123=%d q5=%d", c[0], c[543], c[999], c[123], c[5])
	}
	if subs := chooseSubscribed(1); len(subs) != sharedSubs || !reflect.DeepEqual(subs, chooseSubscribed(1)) {
		t.Errorf("chooseSubscribed(1) = %v", subs)
	}
}

func TestReferenceWindowByHand(t *testing.T) {
	// 20 tuples, ts = idx+1, sym alternates 0/1, price = idx+1; span 4, step 2.
	recs := make([]rec, 20)
	for i := range recs {
		recs[i] = rec{c: [3]int64{int64(i + 1), int64(i % 2), int64((i + 1) * 100)}}
	}
	in := handInput(mustWorkload("window_agg_embedded"), recs)
	e := refWindow(in, 4, 2)
	if insts := len(e.rows) / windowSyms; insts != 9 {
		t.Fatalf("%d instances, want 9 (t = 4, 6, ..., 20)", insts)
	}
	b := in.ph.born
	// Instance t covers inputs [t-4, t-1]: sym 0 has the even indexes, sym 1 the odd.
	check := func(inst, sym int, t64 int64, avg float64, maxBorn int64) {
		t.Helper()
		got := e.rows[inst*windowSyms+sym]
		if !got.want || got.t != t64 || got.i != [4]int64{int64(sym), 0, maxBorn} || math.Abs(got.f-avg) > 1e-12 {
			t.Errorf("instance %d sym %d = %+v, want t=%d avg=%v maxBorn=%d", inst, sym, got.row, t64, avg, maxBorn)
		}
	}
	check(0, 0, 4, 2, b(2))    // idx 0,2 -> prices 1,3
	check(0, 1, 4, 3, b(3))    // idx 1,3 -> prices 2,4
	check(1, 0, 6, 4, b(4))    // idx 2,4 -> 3,5
	check(8, 1, 20, 19, b(19)) // idx 17,19 -> 18,20
	if e.rows[0*windowSyms+2].want {
		t.Error("sym 2 never occurs but has an expected row")
	}
	if got := e.lastIdx(8 * windowSyms); got != 19 {
		t.Errorf("lastIdx(last instance) = %d, want 19", got)
	}
	// Two rows per instance; instance t is complete once input t-1 is in.
	for idxEnd, want := range map[int]int64{3: 0, 4: 2, 5: 2, 6: 4, 20: 18} {
		if got := e.counts(idxEnd)[0]; got != want {
			t.Errorf("counts(%d) = %d, want %d", idxEnd, got, want)
		}
	}
	if s, ok := e.slotOf(&row{t: 6, i: [4]int64{1}}); !ok || s != windowSyms+1 {
		t.Errorf("slotOf(t=6, sym=1) = %d, %v", s, ok)
	}
	if _, ok := e.slotOf(&row{t: 7, i: [4]int64{1}}); ok {
		t.Error("slotOf accepted t=7, which no instance has")
	}
}

func TestVerifierCountsWrongDuplicateMissingLate(t *testing.T) {
	recs := make([]rec, 20)
	for i := range recs {
		recs[i] = rec{c: [3]int64{int64(i), 0}} // every tuple passes v < 500
	}
	in := handInput(mustWorkload("filter_push_wire"), recs)
	v := newVerifier(refFilter(in))
	v.pacedT0 = time.Unix(100, 0)
	at := func(ns int64) time.Time { return v.pacedT0.Add(time.Duration(ns)) }
	b := in.ph.born
	v.observe(&row{i: [4]int64{3, 0, b(3)}}, at(0))                           // warm row, fine
	v.observe(&row{i: [4]int64{3, 0, b(3)}}, at(0))                           // duplicate
	v.observe(&row{i: [4]int64{4, 1, b(4)}}, at(0))                           // wrong value
	v.observe(&row{i: [4]int64{99, 0, 123}}, at(0))                           // born no input carries
	v.observe(&row{i: [4]int64{10, 0, b(10)}}, at(2e6))                       // paced: 2 ms
	v.observe(&row{i: [4]int64{11, 0, b(11)}}, at(1000+int64(2*time.Second))) // paced: late
	tl := v.finish()
	if tl.dup != 1 || tl.wrong != 2 || tl.late != 1 {
		t.Errorf("dup=%d wrong=%d late=%d, want 1 2 1", tl.dup, tl.wrong, tl.late)
	}
	if tl.expected != [numPhases]int{5, 5, 10} || tl.missing != [numPhases]int{4, 5, 8} {
		t.Errorf("expected=%v missing=%v", tl.expected, tl.missing)
	}
	if v.pacedSeen != 2 || v.pacedWant != 10 {
		t.Errorf("pacedSeen=%d pacedWant=%d", v.pacedSeen, v.pacedWant)
	}
	if got := v.lat[0]; len(got) != 2 || got[0] != 2 {
		t.Errorf("latency samples = %v, want [2 ~2000]", got)
	}
}

func TestParseMemStats(t *testing.T) {
	profile := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 1234\n" +
		"# Mallocs = 77\n# Frees = 70\n# PauseNs = [100 200 300 0 0]\n# NumGC = 3\n# DebugGC = false\n"
	var hs hostStats
	if err := parseMemStats(strings.NewReader(profile), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.mallocs != 77 || hs.allocBytes != 1234 || hs.numGC != 3 || hs.pauseRing[1] != 200 {
		t.Errorf("parsed %+v", hs)
	}
	before := hostStats{numGC: 1}
	if got := gcPauseNs(before, hs); got != 500 {
		t.Errorf("gcPauseNs = %d, want 500 (collections 2 and 3)", got)
	}
	if err := parseMemStats(strings.NewReader("# Mallocs = 1\n"), &hs); err == nil {
		t.Error("a profile without MemStats parsed without error")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b          float64
		better        string
		bound, spread float64
		want          string
	}{
		{100, 120, "lower", 0.1, 0, "worse"},
		{100, 80, "lower", 0.1, 0, "better"},
		{100, 105, "lower", 0.1, 0, "within-bound"},
		{100, 80, "higher", 0.1, 0, "worse"},
		{100, 120, "higher", 0.1, 0, "better"},
		{100, 120, "lower", 0.1, 0.2, "unresolved (spread > bound)"},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v, %v) = %q, want %q", c.a, c.b, c.better, c.bound, c.spread, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec pins the committed BENCHMARK.json to spec.go:
// same command, workloads and metric names, units and directions; only the
// bounds may differ (calibration writes them), within the contract's cap.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := "../BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	bounds, err := readBounds(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(bounds); !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from spec.go:\n got %+v\nwant %+v", path, got, want)
	}
	setup := 0.0
	for _, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range got.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.Name, m.Bound, setup)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		unitOf(m.Name) // panics on an undeclared name
	}
}

// TestSmokeAllWorkloads runs every workload end to end at a hundredth of its
// size, tcqd subprocess included, and requires a correct, complete result.
func TestSmokeAllWorkloads(t *testing.T) {
	o := options{outDir: t.TempDir()}
	if err := ensureTcqd(&o); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(runOpts{w: &w, seed: 5, seconds: refSeconds / 100.0, tcqdBin: o.tcqdBin, outDir: o.outDir, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v ops_failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
			}
			if _, err := contractLine(res); err != nil {
				t.Error(err)
			}
			for _, m := range endToEnd {
				v := res.Metrics[m.Name].Value
				// A smoke slice is shorter than one tick of /proc/<pid>/stat,
				// so a tcqd's CPU may read 0 here; at full size it never does.
				if zeroOK := m.Name == "cpu_us_per_tuple" && w.wire; !(v > 0 || zeroOK && v == 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite number", m.Name, v)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced mode of one wire
// workload at smoke size: every per-layer metric must come out and the span
// file must be written.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the per-layer drivers take a few seconds")
	}
	o := options{outDir: t.TempDir()}
	if err := ensureTcqd(&o); err != nil {
		t.Fatal(err)
	}
	ro := runOpts{w: mustWorkload("join_fetch_wire"), seed: 2, seconds: refSeconds / 25.0, traced: true, tcqdBin: o.tcqdBin, outDir: o.outDir, setups: 1}
	res, err := runWorkload(ro)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLayers(res, ro); err != nil {
		t.Fatal(err)
	}
	if _, err := contractLine(res); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"trace-join_fetch_wire.json", "trace-join_fetch_wire-replay.json"} {
		if st, err := os.Stat(fmt.Sprintf("%s/%s", o.outDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("span file %s: %v", name, err)
		}
	}
	if len(res.Shares) == 0 {
		t.Error("no layer shares recorded")
	}
}

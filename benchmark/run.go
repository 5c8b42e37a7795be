package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricValue is one reported number; Samples is the count behind a
// percentile or median (0 when the value is a plain ratio of totals).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Valid     bool                   `json:"valid"` // false: the paced generator missed its schedule
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Warm      int                    `json:"warm_tuples"`
	Sat       int                    `json:"sat_tuples"`
	Paced     int                    `json:"paced_tuples"`
	PacedRate float64                `json:"paced_rate"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Setups are the set-ups' durations at index 1.0, in the order they ran
	// (setup_s is their median); Slices the sat phase's raw readings.
	Setups []float64  `json:"setups_s"`
	Slices []satSlice `json:"sat_slices"`
	// Shares is each layer's share of the embedded replay's CPU per tuple
	// (traced runs only): the terms of trace.layer_sum_ratio.
	Shares map[string]float64 `json:"layer_shares,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("metric " + name + " is not declared in spec.go")
}

type runOpts struct {
	w       *workloadSpec
	seed    uint64
	seconds float64
	traced  bool
	tcqdBin string
	outDir  string
	setups  int // set-ups per run; setup_s is their median
}

const (
	untracedSlices = 12
	tracedSlices   = 6 // alternating spans on/off
)

// satSlice is one slice of the sat phase as measured: tuples fed, wall time
// from the first send to the last result, CPU of the process hosting the
// engine, and the mean of the speed-index readings on either side.
type satSlice struct {
	Tuples    int     `json:"tuples"`
	ElapsedNs int64   `json:"elapsed_ns"`
	CPUNs     int64   `json:"cpu_ns"`
	Index     float64 `json:"speed_index"`
}

// normRate is the slice's tuples per second at index 1.0.
func (s satSlice) normRate() float64 {
	return float64(s.Tuples) / (float64(s.ElapsedNs) / 1e9 * s.Index)
}

// satSummary is what the sat phase reports. The gated values are means over
// the better half of the slices (the faster half for the rate, the cheaper
// half for CPU): what the engine sustains while neither the collector nor a
// dip of the machine is in the way. A mean over the whole phase cannot be
// gated: a growing heap is collected at geometrically spaced points (a cycle
// starts when the heap has doubled since the last), so a fixed span of tuples
// holds one cycle or two at random, each costing as much as several slices,
// and the phase's mean flips between two values from run to run
// (join_fetch_wire: 134k and 221k tuples/s on one commit); the collector's
// third of the slices also puts the median slice on the edge between the two
// kinds. What the collector costs is gated through allocs_per_tuple,
// alloc_bytes_per_tuple and peak_rss_mb, and the phase's mean, every cycle
// included, is kept as sat.phase_*. Normalised values weight each slice by
// its own speed index (time x index): what it would have taken at index 1.0.
type satSummary struct {
	rawRate, normRate   float64 // tuples/s, faster half of the slices
	rawCPU, normCPU     float64 // us per tuple, cheaper half of the slices
	phaseRate, phaseCPU float64 // whole phase at index 1.0
	spread              float64 // (max - min) / median of the normalised slice rates
}

// betterHalfMean is the mean of the larger (or, with lower set, the smaller)
// half of xs, the middle one included when their number is odd.
func betterHalfMean(xs []float64, lower bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if !lower {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	s = s[:(len(s)+1)/2]
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

func summarizeSat(slices []satSlice) satSummary {
	var tuples, wallNorm, cpuNorm float64
	var rawRates, normRates, rawCPUs, normCPUs []float64
	for _, s := range slices {
		tuples += float64(s.Tuples)
		wallNorm += float64(s.ElapsedNs) * s.Index
		cpuNorm += float64(s.CPUNs) * s.Index
		rawRates = append(rawRates, float64(s.Tuples)/(float64(s.ElapsedNs)/1e9))
		normRates = append(normRates, s.normRate())
		cpu := float64(s.CPUNs) / 1e3 / float64(s.Tuples)
		rawCPUs = append(rawCPUs, cpu)
		normCPUs = append(normCPUs, cpu*s.Index)
	}
	sum := satSummary{
		rawRate: betterHalfMean(rawRates, false), normRate: betterHalfMean(normRates, false),
		rawCPU: betterHalfMean(rawCPUs, true), normCPU: betterHalfMean(normCPUs, true),
		phaseRate: tuples / (wallNorm / 1e9), phaseCPU: cpuNorm / 1e3 / tuples,
	}
	sort.Float64s(normRates)
	sum.spread = (normRates[len(normRates)-1] - normRates[0]) / median(normRates)
	return sum
}

// awaitCounts polls the engine-side result counts until every query has
// produced at least want, and reports whether they then match exactly.
func awaitCounts(counts func() ([]int64, error), want []int64, timeout time.Duration) (bool, error) {
	deadline := clk.Now().Add(timeout)
	for {
		got, err := counts()
		if err != nil {
			return false, err
		}
		behind := false
		for i := range want {
			if got[i] < want[i] {
				behind = true
				break
			}
		}
		if !behind {
			for i := range want {
				if got[i] != want[i] {
					return false, nil
				}
			}
			return true, nil
		}
		if clk.Now().After(deadline) {
			return false, nil
		}
		clk.Sleep(time.Millisecond)
	}
}

// runWorkload runs one workload once: build input, set up (warm included),
// saturate, pace, verify.
func runWorkload(o runOpts) (*result, error) {
	w := o.w
	ph := planPhases(w, o.seconds, o.traced)
	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Warm: ph.warmEnd, Sat: ph.satEnd - ph.warmEnd, Paced: ph.total - ph.satEnd, PacedRate: w.pacedRate,
		Metrics: map[string]metricValue{}, Valid: true,
	}
	fail := func(stage string, err error) (*result, error) {
		return nil, fmt.Errorf("%s: %s: %w", w.name, stage, err)
	}

	genStart := clk.Now()
	in := buildInput(w, o.seed, ph)
	genNs := float64(clk.Since(genStart))
	exp := w.ref(in, o.seed)

	var tr *tracer
	if o.traced {
		tr = newTracer(w.name)
		tr.off.Store(true)
	}

	// Set-up, several times: start, create, register, warm. The last one
	// carries on into the measured phases.
	var (
		d        door
		v        *verifier
		countsOK = true
		setupRaw []float64
		waited   time.Duration
		setupIdx = indexed{waited: &waited}
	)
	warmCounts := exp.counts(ph.warmEnd)
	for s := 0; s < o.setups; s++ {
		if !w.wire {
			// Embedded, the engine shares the harness's heap: the pre-built
			// input and the reference table. A cycle over those while a
			// 0.1 s set-up is being timed doubles it, so each set-up starts
			// from a collected heap, as a process that has just started would.
			runtime.GC()
		}
		setupIdx.mark(nil)
		v = newVerifier(exp)
		d = newDoor(in, v, tr, o.tcqdBin)
		start := clk.Now()
		if err := d.open(); err != nil {
			d.close()
			return fail("set-up", err)
		}
		if err := d.feedClosed(0, ph.warmEnd, 0); err != nil {
			d.close()
			return fail("warm", err)
		}
		ok, err := awaitCounts(d.resultCounts, warmCounts, 60*time.Second)
		if err != nil {
			d.close()
			return fail("warm", err)
		}
		if !ok {
			countsOK = false
			res.Notes = append(res.Notes, "engine-side result count after warm differs from the reference")
		}
		setupRaw = append(setupRaw, clk.Since(start).Seconds())
		if s < o.setups-1 {
			d.close()
		}
	}
	setupIdx.mark(d.hostCPUNs)
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	setupNorm := make([]float64, len(setupRaw))
	for i, s := range setupRaw {
		setupNorm[i] = s * setupIdx.between(i)
	}
	res.Setups = setupNorm
	res.set("setup_s", median(setupNorm), len(setupNorm))
	res.set("raw.setup_s", median(setupRaw), len(setupRaw))

	if o.traced {
		// Queries registered, no input: what the scheduler costs at rest.
		c0, t0 := d.hostCPUNs(), clk.Now()
		clk.Sleep(time.Second)
		res.set("executor.idle_cpu_pct", 100*float64(d.hostCPUNs()-c0)/float64(clk.Since(t0)), 0)
	}

	// Saturation: closed loop, fixed tuple count, in equal slices. Each
	// slice runs from its first send until the engine has produced its last
	// result, with a speed-index reading on either side. The collector is
	// left alone: a cycle lands in whichever slice it lands in.
	slices := untracedSlices
	if o.traced {
		slices = tracedSlices
	}
	satN := ph.satEnd - ph.warmEnd
	bounds := make([]int, slices+1)
	sliceCounts := make([][]int64, slices+1)
	for i := range bounds {
		bounds[i] = ph.warmEnd + i*satN/slices
		sliceCounts[i] = exp.counts(bounds[i])
	}
	var depth *depthSampler
	var poolGets0, poolHits0 float64
	if o.traced {
		poolGets0, _ = d.scrape("tcq_tuple_pool_gets_total")
		poolHits0, _ = d.scrape("tcq_tuple_pool_hits_total")
		depth = startDepthSampler(d)
	}
	var (
		satIdx     = indexed{waited: &waited}
		drainLagMs []float64
	)
	before, err := d.stats()
	if err != nil {
		return fail("sat", err)
	}
	satIdx.mark(d.hostCPUNs)
	for s := 0; s < slices; s++ {
		if tr != nil {
			tr.off.Store(s%2 == 1) // even slices record spans, odd ones do not
		}
		satSpan := tr.begin("phase.sat_slice", 0)
		n := bounds[s+1] - bounds[s]
		c0, t0 := d.hostCPUNs(), clk.Now()
		if err := d.feedClosed(bounds[s], bounds[s+1], satSpan); err != nil {
			return fail("sat", err)
		}
		fedAt := clk.Now()
		waitSpan := tr.begin("drain_wait", satSpan)
		ok, err := awaitCounts(d.resultCounts, sliceCounts[s+1], 60*time.Second)
		tr.end(waitSpan, 0)
		if err != nil {
			return fail("sat", err)
		}
		elapsed := clk.Since(t0)
		c1 := d.hostCPUNs()
		tr.end(satSpan, n)
		if !ok {
			countsOK = false
			res.Notes = append(res.Notes, fmt.Sprintf("engine-side result count after sat slice %d differs from the reference", s))
		}
		satIdx.mark(d.hostCPUNs)
		res.Slices = append(res.Slices, satSlice{Tuples: n, ElapsedNs: int64(elapsed), CPUNs: c1 - c0, Index: satIdx.between(s)})
		drainLagMs = append(drainLagMs, float64(t0.Add(elapsed).Sub(fedAt))/1e6)
	}
	after, err := d.stats()
	if err != nil {
		return fail("sat", err)
	}
	if tr != nil {
		tr.off.Store(false)
	}
	sat := summarizeSat(res.Slices)
	res.set("tuples_per_s", sat.normRate, slices)
	res.set("cpu_us_per_tuple", sat.normCPU, slices)
	res.set("raw.tuples_per_s", sat.rawRate, slices)
	res.set("raw.cpu_us_per_tuple", sat.rawCPU, slices)
	res.set("sat.slice_spread_ratio", sat.spread, slices)
	res.set("sat.phase_tuples_per_s", sat.phaseRate, slices)
	res.set("sat.phase_cpu_us_per_tuple", sat.phaseCPU, slices)
	res.set("allocs_per_tuple", float64(after.mallocs-before.mallocs)/float64(satN), 0)
	res.set("alloc_bytes_per_tuple", float64(after.allocBytes-before.allocBytes)/float64(satN), 0)
	res.set("core.drain_lag_ms", median(drainLagMs), slices)
	if o.traced {
		var on, off []float64
		for i, sl := range res.Slices {
			if i%2 == 0 {
				on = append(on, sl.normRate())
			} else {
				off = append(off, sl.normRate())
			}
		}
		res.set("trace.overhead_ratio", median(on)/median(off), slices)
		depthP99 := depth.stop()
		res.set("core.queue_depth_p99", depthP99, depth.n)
		gets, _ := d.scrape("tcq_tuple_pool_gets_total")
		hits, _ := d.scrape("tcq_tuple_pool_hits_total")
		ratio := 0.0
		if gets > poolGets0 {
			ratio = (hits - poolHits0) / (gets - poolGets0)
		}
		res.set("tuple.pool_hit_ratio", ratio, 0)
		res.set("server.syscalls_per_tuple", float64(after.syscalls-before.syscalls)/float64(satN), 0)
		res.set("proc.ctx_switches_per_tuple", float64(after.ctxSw-before.ctxSw)/float64(satN), 0)
		res.set("proc.num_gc", float64(after.numGC-before.numGC), 0)
		res.set("proc.gc_pause_ms_total", float64(gcPauseNs(before, after))/1e6, 0)
	}

	// Paced: open loop at the frozen rate; latency is charged from each
	// tuple's scheduled send time.
	pacedN := ph.total - ph.satEnd
	pacedT0 := clk.Now().Add(20 * time.Millisecond)
	v.mu.Lock()
	v.pacedT0 = pacedT0
	v.mu.Unlock()
	pacedSpan := tr.begin("phase.paced", 0)
	lags, err := d.feedPaced(ph.satEnd, ph.total, pacedT0, pacedSpan)
	if err != nil {
		return fail("paced", err)
	}
	ok, err := awaitCounts(d.resultCounts, exp.counts(ph.total), 3*time.Second)
	if err != nil {
		return fail("paced", err)
	}
	if !ok {
		countsOK = false
		res.Notes = append(res.Notes, "engine-side result count after paced differs from the reference")
	}
	// Rows already produced may still be on their way to the consumer (a
	// push in flight, the next poll); anything later than this is late.
	for deadline := clk.Now().Add(1500 * time.Millisecond); clk.Now().Before(deadline); {
		v.mu.Lock()
		done := v.pacedSeen >= v.pacedWant
		v.mu.Unlock()
		if done {
			break
		}
		clk.Sleep(2 * time.Millisecond)
	}
	tr.end(pacedSpan, pacedN)
	satIdx.mark(d.hostCPUNs)
	res.set("machine.speed_index", satIdx.mean(), len(satIdx.readings))
	res.set("machine.calm_wait_s", waited.Seconds(), 0)

	peak, err := d.peakRSSMB()
	if err != nil {
		return fail("peak rss", err)
	}
	res.set("peak_rss_mb", peak, 0)
	feedFailed := d.feedFailures()
	d.close()
	closed = true

	// Account.
	t := v.finish()
	all, samples := v.latencyAll()
	if samples == 0 {
		return nil, fmt.Errorf("%s: the paced phase produced no latency sample", w.name)
	}
	res.set("latency_p50_ms", v.latencySegMedian(50), samples)
	res.set("latency_p95_ms", v.latencySegMedian(95), samples)
	res.set("paced.latency_p50_all_ms", percentile(all, 50), samples)
	res.set("paced.latency_p95_all_ms", percentile(all, 95), samples)
	res.set("paced.latency_p99_all_ms", percentile(all, 99), samples)
	lost := t.missing[phPaced] + t.wrong + t.dup + t.late
	res.set("paced.result_loss_ratio", float64(lost)/math.Max(1, float64(t.expected[phPaced])), t.expected[phPaced])
	unpaced := t.expected[phWarm] + t.expected[phSat]
	missedUnpaced := t.missing[phWarm] + t.missing[phSat]
	res.set("server.push_loss_ratio_sat", float64(missedUnpaced)/math.Max(1, float64(unpaced)), unpaced)
	lagP99 := percentile(lags, 99)
	res.set("gen.lag_p99_ms", lagP99, len(lags))
	res.set("gen.build_ns_per_tuple", genNs/float64(ph.total), 0)
	// Only a generator in its own process can be told apart from the engine:
	// embedded, DB.Feed blocks on the engine's back-pressure and shares its
	// collector, and that lateness is already charged to latency.
	if w.wire && lagP99 > genLagLimitMs {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("generator ran %.2f ms late at p99 (limit %.0f ms): the paced phase is invalid, not slow", lagP99, genLagLimitMs))
	}

	res.Attempted = int64(satN + pacedN + t.expected[phPaced])
	res.Failed = feedFailed + int64(lost)
	res.Correct = countsOK && t.wrong == 0 && t.dup == 0 && t.missing[phPaced] == 0 && feedFailed == 0
	if !countsOK {
		res.Failed++
	}
	if !w.push {
		// A pull log keeps every row until fetched: nothing may go missing
		// in any phase. Push rows dropped at saturation are QoS by design.
		res.Failed += int64(missedUnpaced)
		res.Correct = res.Correct && missedUnpaced == 0
	}
	if t.firstErr != "" {
		res.Notes = append(res.Notes, "first bad row: "+t.firstErr)
	}

	if o.traced {
		path, err := tr.write(o.outDir)
		if err != nil {
			return fail("write trace", err)
		}
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	return res, nil
}

// depthSampler samples tcq_ingress_queue_depth during the sat phase.
type depthSampler struct {
	d       door
	stopCh  chan struct{}
	wg      sync.WaitGroup
	samples []float64
	n       int
}

func startDepthSampler(d door) *depthSampler {
	s := &depthSampler{d: d, stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			start := clk.Now()
			if depth, err := d.scrape("tcq_ingress_queue_depth"); err == nil {
				s.samples = append(s.samples, depth)
			}
			// Every 10 ms, or less often when a scrape is itself slow
			// (a thousand queries export thousands of series): sampling
			// must stay a small share of the run.
			pause := 10 * time.Millisecond
			if cost := clk.Since(start); 9*cost > pause {
				pause = 9 * cost
			}
			select {
			case <-s.stopCh:
				return
			case <-clk.After(pause):
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() float64 {
	close(s.stopCh)
	s.wg.Wait()
	s.n = len(s.samples)
	if s.n == 0 {
		return 0
	}
	return percentile(s.samples, 99)
}

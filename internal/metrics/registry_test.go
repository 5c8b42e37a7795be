package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tcq_test_total")
	c.Inc()
	if r.Counter("tcq_test_total") != c {
		t.Error("counter not memoized")
	}
	g := r.Gauge("tcq_depth")
	g.Set(3.5)
	if r.Gauge("tcq_depth").Value() != 3.5 {
		t.Error("gauge not memoized")
	}
	h := r.Histogram("tcq_lat_seconds", 64)
	h.Record(time.Millisecond)
	if r.Histogram("tcq_lat_seconds", 64) != h {
		t.Error("histogram not memoized")
	}
}

func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("tcq_shared_total").Inc()
				r.Counter(fmt.Sprintf(`tcq_per{worker="%d"}`, i)).Inc()
				r.Gauge("tcq_g").Set(float64(j))
				r.Histogram("tcq_h_seconds", 32).Record(time.Duration(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	// Concurrent scraping while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	if got := r.Counter("tcq_shared_total").Value(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
}

func TestRegistryFuncMetricsAndUnregister(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.RegisterFunc(`tcq_fn{query="7"}`, KindCounter, func() float64 { v++; return float64(v) })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != `tcq_fn{query="7"}` || snap[0].Value != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
	r.Counter(`tcq_c{query="7"}`).Inc()
	r.Counter(`tcq_c{query="8"}`).Inc()
	if n := r.UnregisterMatching(`query="7"`); n != 2 {
		t.Errorf("removed %d, want 2", n)
	}
	snap = r.Snapshot()
	if len(snap) != 1 || snap[0].Name != `tcq_c{query="8"}` {
		t.Errorf("after unregister: %+v", snap)
	}
	r.Unregister(`tcq_c{query="8"}`)
	if len(r.Snapshot()) != 0 {
		t.Error("unregister by name failed")
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegistryRejectsBadFamilies(t *testing.T) {
	r := NewRegistry()
	fn := func() float64 { return 0 }
	for _, name := range []string{
		"tcq", "tcq_", "eddy_visits", "tcq_Eddy", "tcq__x", "tcq_x_",
		"tcq-x", `tcq_x-y{stream="S"}`, `{stream="S"}`,
	} {
		mustPanic(t, "Counter("+name+")", func() { r.Counter(name) })
		mustPanic(t, "Gauge("+name+")", func() { r.Gauge(name) })
		mustPanic(t, "Histogram("+name+")", func() { r.Histogram(name, 8) })
		mustPanic(t, "RegisterFunc("+name+")", func() { r.RegisterFunc(name, KindGauge, fn) })
	}
	if n := len(r.Snapshot()); n != 0 {
		t.Errorf("refused names left %d series behind", n)
	}
	// Labels are not the family: anything goes inside the braces.
	r.Counter(`tcq_x_2{stream="S-1",op="GF(S.v)"}`)
}

func TestRegisterFuncRejectsLiveDuplicate(t *testing.T) {
	r := NewRegistry()
	const name = `tcq_eddy_visits_total{stream="S"}`
	r.RegisterFunc(name, KindCounter, func() float64 { return 1 })
	mustPanic(t, "second RegisterFunc", func() {
		r.RegisterFunc(name, KindCounter, func() float64 { return 2 })
	})
	// A retired class's series may be registered again by its successor.
	r.Unregister(name)
	r.RegisterFunc(name, KindCounter, func() float64 { return 3 })
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Value != 3 {
		t.Errorf("after retire and re-register: %+v", snap)
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter(`tcq_eddy_visits_total{query="1"}`).Add(5)
	r.Counter(`tcq_eddy_visits_total{query="2"}`).Add(7)
	r.Gauge("tcq_queue_depth").Set(3)
	r.Histogram("tcq_fire_seconds", 16).Record(10 * time.Millisecond)
	r.RegisterFunc("tcq_streams", KindGauge, func() float64 { return 2 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE tcq_eddy_visits_total counter\n",
		`tcq_eddy_visits_total{query="1"} 5` + "\n",
		`tcq_eddy_visits_total{query="2"} 7` + "\n",
		"# TYPE tcq_queue_depth gauge\n",
		"tcq_queue_depth 3\n",
		"# TYPE tcq_fire_seconds summary\n",
		`tcq_fire_seconds{quantile="0.5"} 0.01` + "\n",
		"tcq_fire_seconds_sum 0.01\n",
		"tcq_fire_seconds_count 1\n",
		"# TYPE tcq_streams gauge\n",
		"tcq_streams 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several series.
	if strings.Count(out, "# TYPE tcq_eddy_visits_total ") != 1 {
		t.Error("duplicate TYPE lines for one family")
	}
	// Families must be sorted.
	i1 := strings.Index(out, "# TYPE tcq_eddy_visits_total")
	i2 := strings.Index(out, "# TYPE tcq_queue_depth")
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Error("families not sorted")
	}
}

func TestHistogramSeededReservoirDeterministic(t *testing.T) {
	run := func() []time.Duration {
		h := NewHistogramSeeded(8, 42)
		for i := 0; i < 10000; i++ {
			h.Record(time.Duration(i))
		}
		return h.Snapshot().Samples
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("reservoir sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-reproducible reservoir: %v vs %v", a, b)
		}
	}
	// A different seed should (overwhelmingly) retain a different set.
	h := NewHistogramSeeded(8, 7)
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i))
	}
	c := h.Snapshot().Samples
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds retained identical reservoirs")
	}
}

func TestHistogramSnapshotLockFree(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100*time.Millisecond {
		t.Errorf("count=%d max=%v", s.Count, s.Max)
	}
	if m := s.Mean(); m < 50*time.Millisecond || m > 51*time.Millisecond {
		t.Errorf("mean = %v", m)
	}
	if q := s.Quantile(0.5); q < 45*time.Millisecond || q > 55*time.Millisecond {
		t.Errorf("p50 = %v", q)
	}
	// Snapshot is a copy: further records must not affect it.
	h.Record(time.Hour)
	if s.Max == time.Hour || s.Count != 100 {
		t.Error("snapshot aliases live histogram state")
	}
	// Samples are sorted for quantile reads.
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i-1] > s.Samples[i] {
			t.Fatal("snapshot samples not sorted")
		}
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer(1.0, 1, 2)
	k1, k2, k3, k4 := new(int), new(int), new(int), new(int)
	if !tr.Sample(k1, "q1", 10) {
		t.Fatal("rate-1 tracer refused a sample")
	}
	if !tr.Live(k1) || tr.Live(k2) {
		t.Error("liveness wrong")
	}
	t0 := time.Unix(0, 0)
	tr.Span(k1, "sel0", t0, t0.Add(time.Microsecond), true, 0)
	tr.Span(k1, "SteM(s)", t0.Add(time.Microsecond), t0.Add(3*time.Microsecond), true, 1)
	tr.Fork(k1, k2)
	tr.Finish(k1, true)
	tr.Span(k2, "sel1", t0.Add(3*time.Microsecond), t0.Add(4*time.Microsecond), false, 0)
	tr.Finish(k2, false)

	got := tr.Recent("q1")
	if len(got) != 2 {
		t.Fatalf("recent = %d traces", len(got))
	}
	if len(got[0].Spans) != 2 || !got[0].Emitted {
		t.Errorf("first trace: %+v", got[0])
	}
	if got[0].Spans[1].Latency() != 2*time.Microsecond {
		t.Errorf("span latency = %v, want 2µs", got[0].Spans[1].Latency())
	}
	if got[0].Latency() != 3*time.Microsecond {
		t.Errorf("trace latency = %v, want 3µs (first enter to last exit)", got[0].Latency())
	}
	// Fork inherited the parent's two spans, then added its own; the fork
	// edge records the parent seq and inherited span count.
	if len(got[1].Spans) != 3 || got[1].Emitted {
		t.Errorf("forked trace: %+v", got[1])
	}
	if !got[1].Forked || got[1].ForkOf != 10 || got[1].ForkSpans != 2 {
		t.Errorf("fork edge: %+v", got[1])
	}
	if !strings.Contains(got[0].String(), "SteM(s)") {
		t.Errorf("trace string = %q", got[0].String())
	}

	// Ring keeps only the newest two per tag.
	tr.Sample(k3, "q1", 11)
	tr.Finish(k3, false)
	tr.Sample(k4, "q1", 12)
	tr.Finish(k4, true)
	got = tr.Recent("q1")
	if len(got) != 2 || got[0].Seq != 11 || got[1].Seq != 12 {
		t.Errorf("ring = %+v", got)
	}
	if tr.Recent("q9") != nil {
		t.Error("unknown tag returned traces")
	}
}

func TestTracerTagLRUChurn(t *testing.T) {
	tr := NewTracer(1.0, 1, 4)
	tr.SetMaxTags(8)
	// Churn through many more tags than the cap, touching q0 on every
	// round so recency keeps it resident.
	for i := 0; i < 100; i++ {
		k := new(int)
		tag := fmt.Sprintf("q%d", i)
		tr.Sample(k, tag, int64(i))
		tr.Finish(k, true)
		k0 := new(int)
		tr.Sample(k0, "q0", int64(i))
		tr.Finish(k0, false)
	}
	if got := tr.Tags(); got != 8 {
		t.Fatalf("tag count after churn = %d, want cap 8", got)
	}
	if tr.Recent("q0") == nil {
		t.Error("hot tag q0 evicted despite constant touches")
	}
	if tr.Recent("q1") != nil {
		t.Error("cold tag q1 survived 99 rounds of churn")
	}
	// Memory check: the retained traces are bounded by cap*keep.
	total := 0
	for i := 0; i < 100; i++ {
		total += len(tr.Recent(fmt.Sprintf("q%d", i)))
	}
	if total > 8*4 {
		t.Errorf("retained %d traces, want <= maxTags*keep = 32", total)
	}
}

func TestTracerSinkAndHistograms(t *testing.T) {
	tr := NewTracer(1.0, 1, 4)
	reg := NewRegistry()
	tr.ExportHistograms(reg)
	var sunk []*Trace
	tr.SetSink(func(trace *Trace) { sunk = append(sunk, trace) })

	k := new(int)
	tr.Sample(k, "q1", 1)
	t0 := time.Unix(0, 0)
	tr.Span(k, "SteM(s)", t0, t0.Add(time.Millisecond), true, 2)
	tr.Finish(k, true)

	if len(sunk) != 1 || sunk[0].Seq != 1 || !sunk[0].Emitted {
		t.Fatalf("sink saw %+v", sunk)
	}
	want := `tcq_hop_latency_seconds_count{module="SteM(s)"}`
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == want {
			found = true
			if s.Value != 1 {
				t.Fatalf("%s = %v, want 1", want, s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("snapshot missing %s", want)
	}
}

func TestTracerDisabledAndSampling(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Sample(new(int), "q", 1) || nilTr.Live(new(int)) || nilTr.Recent("q") != nil {
		t.Error("nil tracer must be inert")
	}
	off := NewTracer(0, 1, 4)
	if off.Sample(new(int), "q", 1) {
		t.Error("rate-0 tracer sampled")
	}
	// Rate 0.5 samples roughly half deterministically for a fixed seed.
	half := NewTracer(0.5, 99, 4096)
	n := 0
	for i := 0; i < 1000; i++ {
		k := new(int)
		if half.Sample(k, "q", int64(i)) {
			n++
			half.Finish(k, false)
		}
	}
	if n < 400 || n > 600 {
		t.Errorf("sampled %d/1000 at rate 0.5", n)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1.0, 1, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := fmt.Sprintf("q%d", w)
			for i := 0; i < 200; i++ {
				k := new(int)
				tr.Sample(k, tag, int64(i))
				t0 := time.Unix(0, int64(i))
				tr.Span(k, "m", t0, t0.Add(time.Nanosecond), true, 0)
				tr.Finish(k, i%2 == 0)
				tr.Recent(tag)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		if got := len(tr.Recent(fmt.Sprintf("q%d", w))); got != 8 {
			t.Errorf("tag q%d ring = %d", w, got)
		}
	}
}

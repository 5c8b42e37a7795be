package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a registered metric for export.
type Kind int

// Metric kinds, mapped onto Prometheus types: KindCounter -> counter,
// KindGauge -> gauge, histograms export as summaries.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return "untyped"
}

// funcMetric is a metric whose value is computed at scrape time, so
// subsystems that already keep counters (eddy stats, SteM stats, Flux)
// can be exported with zero hot-path cost.
type funcMetric struct {
	kind Kind
	fn   func() float64
}

// Registry is a concurrent-safe named metric collection. Metric names
// follow the Prometheus convention `family{label="value",...}`; series
// sharing a family are grouped under one TYPE declaration on export.
// Creating a series whose family does not match tcq(_[a-z0-9]+)+ panics,
// as does a RegisterFunc of a name that is still registered.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]funcMetric),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	checkFamily(name)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	checkFamily(name)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram, seeded
// deterministically from the name so retained reservoirs are reproducible.
func (r *Registry) Histogram(name string, capSamples int) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	checkFamily(name)
	var seed int64 = 1
	for _, b := range name {
		seed = seed*131 + int64(b)
	}
	h = NewHistogramSeeded(capSamples, seed)
	r.hists[name] = h
	return h
}

// RegisterFunc installs a computed metric evaluated at scrape time. It
// panics if a computed metric of the same name is still registered: two
// owners of one series would silently replace each other.
func (r *Registry) RegisterFunc(name string, kind Kind, fn func() float64) {
	checkFamily(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[name]; dup {
		panic("metrics: RegisterFunc of registered series " + strconv.Quote(name))
	}
	r.funcs[name] = funcMetric{kind: kind, fn: fn}
}

// checkFamily panics unless name's family (the part before '{') matches
// tcq(_[a-z0-9]+)+. A byte loop, since setup registers thousands of series.
func checkFamily(name string) {
	fam, _, _ := strings.Cut(name, "{")
	ok := len(fam) > 4 && fam[:4] == "tcq_"
	for i := 4; ok && i < len(fam); i++ {
		c := fam[i]
		ok = c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' && fam[i-1] != '_' && i < len(fam)-1
	}
	if !ok {
		panic("metrics: family of " + strconv.Quote(name) + " does not match tcq(_[a-z0-9]+)+")
	}
}

// Unregister removes the named metric of any kind.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.hists, name)
	delete(r.funcs, name)
	r.mu.Unlock()
}

// UnregisterMatching removes every metric whose full name contains the
// given substring (e.g. `query="7"` drops all of query 7's series).
// It returns the number removed.
func (r *Registry) UnregisterMatching(sub string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.counters {
		if strings.Contains(name, sub) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gauges {
		if strings.Contains(name, sub) {
			delete(r.gauges, name)
			n++
		}
	}
	for name := range r.hists {
		if strings.Contains(name, sub) {
			delete(r.hists, name)
			n++
		}
	}
	for name := range r.funcs {
		if strings.Contains(name, sub) {
			delete(r.funcs, name)
			n++
		}
	}
	return n
}

// Sample is one exported series value.
type Sample struct {
	Name  string
	Value float64
}

// series is the internal scrape unit: funcs are evaluated after the
// registry lock is released so computed metrics may take their own locks.
type series struct {
	name string
	kind Kind
	val  float64
	fn   func() float64
	hist *Histogram
}

func (r *Registry) collect() []series {
	r.mu.RLock()
	out := make([]series, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		out = append(out, series{name: name, kind: KindCounter, val: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, series{name: name, kind: KindGauge, val: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, series{name: name, kind: KindHistogram, hist: h})
	}
	for name, f := range r.funcs {
		out = append(out, series{name: name, kind: f.kind, fn: f.fn})
	}
	r.mu.RUnlock()
	for i := range out {
		if out[i].fn != nil {
			out[i].val = out[i].fn()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot returns every series value, sorted by name. Histograms expand
// into _count, _sum_seconds, _p50/_p99 and _max_seconds samples.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, s := range r.collect() {
		if s.hist == nil {
			out = append(out, Sample{Name: s.name, Value: s.val})
			continue
		}
		hs := s.hist.Snapshot()
		fam, labels := splitName(s.name)
		mk := func(suffix string) string { return joinName(fam+suffix, labels) }
		out = append(out,
			Sample{Name: mk("_count"), Value: float64(hs.Count)},
			Sample{Name: mk("_sum_seconds"), Value: hs.Sum.Seconds()},
			Sample{Name: mk("_p50_seconds"), Value: hs.Quantile(0.5).Seconds()},
			Sample{Name: mk("_p99_seconds"), Value: hs.Quantile(0.99).Seconds()},
			Sample{Name: mk("_max_seconds"), Value: hs.Max.Seconds()},
		)
	}
	return out
}

// splitName separates `family{labels}` into family and `labels` (without
// braces; empty when unlabelled).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinName reassembles a family and label body into a series name.
func joinName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// withLabel appends one label to a series name.
func withLabel(name, label string) string {
	fam, labels := splitName(name)
	if labels == "" {
		return joinName(fam, label)
	}
	return joinName(fam, labels+","+label)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms export as summaries with quantile
// labels plus _sum (seconds) and _count series.
func (r *Registry) WritePrometheus(w io.Writer) {
	all := r.collect()
	// Group series by family so each family gets exactly one TYPE line.
	byFamily := make(map[string][]series)
	var families []string
	for _, s := range all {
		fam, _ := splitName(s.name)
		if _, seen := byFamily[fam]; !seen {
			families = append(families, fam)
		}
		byFamily[fam] = append(byFamily[fam], s)
	}
	sort.Strings(families)
	for _, fam := range families {
		group := byFamily[fam]
		fmt.Fprintf(w, "# TYPE %s %s\n", fam, group[0].kind)
		for _, s := range group {
			if s.hist == nil {
				fmt.Fprintf(w, "%s %s\n", s.name, formatValue(s.val))
				continue
			}
			hs := s.hist.Snapshot()
			for _, q := range []float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(w, "%s %s\n",
					withLabel(s.name, fmt.Sprintf(`quantile="%g"`, q)),
					formatValue(hs.Quantile(q).Seconds()))
			}
			famOnly, labels := splitName(s.name)
			fmt.Fprintf(w, "%s %s\n", joinName(famOnly+"_sum", labels), formatValue(hs.Sum.Seconds()))
			fmt.Fprintf(w, "%s %s\n", joinName(famOnly+"_count", labels), formatValue(float64(hs.Count)))
		}
	}
}

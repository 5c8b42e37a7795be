// Package metriccheck is the tcqlint fixture for the Prometheus naming
// and registration rules: tcq_-prefixed snake_case families, statically
// resolvable names, and single-site RegisterFunc registration.
package metriccheck

import (
	"fmt"

	"telegraphcq/internal/metrics"
)

const okFamily = "tcq_fixture_events_total"

// good covers the resolvable shapes: literals, constants, labeled series,
// constant-prefix concatenation, Sprintf formats, and range over a map
// literal with constant keys.
func good(r *metrics.Registry, stream string) {
	r.Counter(okFamily).Inc()
	r.Counter(`tcq_fixture_drops_total{stream="a"}`).Add(1)
	r.Counter("tcq_fixture_in_total{stream=\"" + stream + "\"}").Inc()
	r.Gauge(fmt.Sprintf("tcq_fixture_depth{shard=%q}", "s0")).Set(1)
	r.Histogram("tcq_fixture_latency_seconds", 64)
	for name, v := range map[string]float64{"tcq_fixture_a": 1, "tcq_fixture_b": 2} {
		r.Gauge(name).Set(v)
	}
}

// goodIntrospection mirrors the observability subsystem's families: the
// per-module hop-latency histograms keyed by Sprintf label, and the
// introspection publisher counters.
func goodIntrospection(r *metrics.Registry, module string) {
	r.Histogram(fmt.Sprintf("tcq_hop_latency_seconds{module=%q}", module), 1024)
	r.Counter("tcq_introspect_published_total").Inc()
	r.Counter("tcq_introspect_dropped_total").Add(1)
	r.RegisterFunc("tcq_introspect_ticks_total", metrics.KindCounter, func() float64 { return 0 })
}

// goodRouting mirrors the adaptive-routing families: the probe-order
// planning counters registered per query (label appended to a constant
// family prefix, the query.go/eddyrun.go pattern).
func goodRouting(r *metrics.Registry, lbl string) {
	for name := range map[string]struct{}{
		"tcq_policy_orders_total":       {},
		"tcq_policy_order_reuses_total": {},
		"tcq_nway_pruned_total":         {},
	} {
		r.RegisterFunc(name+`{query="1"}`, metrics.KindCounter, func() float64 { return 0 })
	}
	r.Counter(`tcq_policy_orders_total{query="2"}`).Inc()
}

// bad covers the naming failures and an unresolvable name.
func bad(r *metrics.Registry, name string) {
	r.Counter("fixture_events_total").Inc() // want `metric family "fixture_events_total" passed to Registry\.Counter is not tcq_-prefixed`
	r.Gauge("tcq_BadName").Set(1)           // want `metric family "tcq_BadName" passed to Registry\.Gauge is not tcq_-prefixed` `metric name "tcq_BadName" is not tcq_-prefixed`
	r.Counter(name).Inc()                   // want `metric name passed to Registry\.Counter is not statically resolvable`
}

// registerOnce and registerTwice register the same constant family from
// two call sites; both sites are flagged.
func registerOnce(r *metrics.Registry) {
	r.RegisterFunc("tcq_fixture_static_value", metrics.KindGauge, func() float64 { return 1 }) // want `registered by RegisterFunc at 2 call sites`
}

func registerTwice(r *metrics.Registry) {
	r.RegisterFunc("tcq_fixture_static_value", metrics.KindGauge, func() float64 { return 2 }) // want `registered by RegisterFunc at 2 call sites`
}

// recorder is a registrar forwarder: it records each series name while
// forwarding to the registry. The pass-through call inside RegisterFunc
// is exempt (its name is the method's own parameter); call sites of the
// forwarder are held to the same resolvability and naming rules as the
// registry itself.
type recorder struct {
	r     *metrics.Registry
	names []string
}

func (m *recorder) RegisterFunc(name string, kind metrics.Kind, fn func() float64) {
	m.names = append(m.names, name)
	m.r.RegisterFunc(name, kind, fn)
}

func goodForwarder(m *recorder, q int) {
	m.RegisterFunc("tcq_fixture_forwarded_total", metrics.KindCounter, func() float64 { return 0 })
	m.RegisterFunc(fmt.Sprintf("tcq_fixture_forwarded_depth{query=%q}", "7"), metrics.KindGauge, func() float64 { return 1 })
}

func badForwarder(m *recorder, name string) {
	m.RegisterFunc(name, metrics.KindCounter, func() float64 { return 0 }) // want `metric name passed to Registry\.RegisterFunc is not statically resolvable`
}

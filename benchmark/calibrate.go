package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract between this benchmark and
// whoever runs it; its content is generated from spec.go so the two cannot
// drift apart (TestBenchmarkJSONMatchesSpec pins it).
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []boundedDef  `json:"end_to_end"`
	PerLayer   []plainDef    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type plainDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec renders spec.go as BENCHMARK.json, with the given bounds
// (by metric name) replacing the listed ones.
func benchmarkSpec(bounds map[string]float64) benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		if nb, ok := bounds[m.Name]; ok {
			b = nb
		}
		f.EndToEnd = append(f.EndToEnd, boundedDef{m.Name, m.Unit, m.Better, b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, plainDef{m.Name, m.Unit, m.Better})
	}
	return f
}

func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// maxBound is the widest bound the contract accepts.
const maxBound = 0.25

// rawCompanions are the un-normalised twins of the speed-indexed metrics.
// The calibration records their spread beside the gated metric's, which is
// the evidence that the index is needed (or no longer is) on the box that
// ran it.
var rawCompanions = map[string]string{
	"setup_s":          "raw.setup_s",
	"tuples_per_s":     "raw.tuples_per_s",
	"cpu_us_per_tuple": "raw.cpu_us_per_tuple",
}

// metricNoise is one workload x metric cell of the calibration.
type metricNoise struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median
	// RawSpread is the spread of the metric's un-normalised twin.
	RawSpread float64   `json:"raw_spread,omitempty"`
	rawValues []float64 // of the twin, same runs
}

// calibration is the committed record of a -calibrate run.
type calibration struct {
	Record *record                            `json:"machine"`
	Sets   int                                `json:"sets"`
	Noise  map[string]map[string]*metricNoise `json:"noise"` // workload -> metric
	Bounds map[string]float64                 `json:"bounds"`
	// Tight lists the cells whose spread is more than half their bound: a
	// change there must clear more than the usual margin to be believed.
	Tight   []string `json:"spread_over_half_bound,omitempty"`
	Demote  []string `json:"cannot_be_gated,omitempty"`
	Problem []string `json:"excluded_runs,omitempty"`
}

// calibrateMode runs -sets full sets on this commit, set n with seed n as the
// driver's acceptance runs do, prints the noise floor of every workload x
// end-to-end metric, and derives each bound: the listed value or twice the
// widest spread seen, whichever is larger, capped at what the contract
// allows. Runs that failed, or whose generator missed its schedule, are
// listed and left out of the noise. A metric whose spread exceeds the cap
// cannot be gated and is reported for demotion.
func calibrateMode(o options) error {
	if err := ensureTcqd(&o); err != nil {
		return err
	}
	rec := newRecord(o)
	rec.Workloads = nil
	cal := &calibration{Record: rec, Sets: o.sets, Noise: map[string]map[string]*metricNoise{}, Bounds: map[string]float64{}}
	for _, w := range workloads {
		cal.Noise[w.name] = map[string]*metricNoise{}
		for _, m := range endToEnd {
			cal.Noise[w.name][m.Name] = &metricNoise{}
		}
	}
	for set := 1; set <= o.sets; set++ {
		for _, w := range workloads {
			res, err := runChild(o, w.name, uint64(set), 0)
			if res == nil {
				return err
			}
			if err != nil || !res.Correct || res.Failed != 0 || !res.Valid {
				cal.Problem = append(cal.Problem, fmt.Sprintf("%s seed %d: correct=%v ops_failed=%d valid=%v gen.lag_p99_ms=%.2f",
					w.name, set, res.Correct, res.Failed, res.Valid, res.Metrics["gen.lag_p99_ms"].Value))
				continue
			}
			for _, m := range endToEnd {
				n := cal.Noise[w.name][m.Name]
				n.Values = append(n.Values, res.Metrics[m.Name].Value)
				if raw, ok := rawCompanions[m.Name]; ok {
					n.rawValues = append(n.rawValues, res.Metrics[raw].Value)
				}
			}
		}
	}

	fmt.Printf("\n%-22s %-22s %14s %14s %14s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "raw")
	widest := map[string]float64{}
	for _, w := range workloads {
		for _, m := range endToEnd {
			n := cal.Noise[w.name][m.Name]
			n.Q1, n.Median, n.Q3 = quartiles(n.Values)
			n.Spread = relSpread(n.Values)
			raw := ""
			if len(n.rawValues) > 0 {
				n.RawSpread = relSpread(n.rawValues)
				raw = fmt.Sprintf("%8.4f", n.RawSpread)
			}
			fmt.Printf("%-22s %-22s %14.4f %14.4f %14.4f %8.4f %8s\n", w.name, m.Name, n.Median, n.Q1, n.Q3, n.Spread, raw)
			if n.Spread > widest[m.Name] {
				widest[m.Name] = n.Spread
			}
		}
	}
	fmt.Printf("\n%-22s %8s %8s %8s\n", "metric", "listed", "spread", "bound")
	for _, m := range endToEnd {
		bound := math.Min(maxBound, math.Max(m.Bound, 2*widest[m.Name]))
		note := ""
		// The driver holds every metric's spread to its bound except
		// setup_s's, which it judges by the drift of the median alone.
		if widest[m.Name] > bound && m.Name != "setup_s" {
			cal.Demote = append(cal.Demote, m.Name)
			note = "  spread exceeds the widest allowed bound: demote to a diagnostic"
		}
		cal.Bounds[m.Name] = math.Round(bound*1000) / 1000
		fmt.Printf("%-22s %8.3f %8.4f %8.3f%s\n", m.Name, m.Bound, widest[m.Name], cal.Bounds[m.Name], note)
		for _, w := range workloads {
			if sp := cal.Noise[w.name][m.Name].Spread; 2*sp > bound {
				cal.Tight = append(cal.Tight, fmt.Sprintf("%s %s: spread %.3f, bound %.3f", w.name, m.Name, sp, bound))
			}
		}
	}
	for _, p := range cal.Problem {
		fmt.Println("excluded:", p)
	}

	path := filepath.Join(o.outDir, "CALIBRATION_"+rec.Commit+".json")
	if err := writeJSON(path, cal); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if !o.writeBnds {
		return nil
	}
	if len(cal.Demote) > 0 {
		return fmt.Errorf("not writing bounds: %v cannot be gated at the measured spread", cal.Demote)
	}
	if err := writeJSON(o.benchJSON, benchmarkSpec(cal.Bounds)); err != nil {
		return err
	}
	fmt.Println("wrote", o.benchJSON)
	return nil
}

// compareMode prints one row per workload x end-to-end metric of two
// trajectory points: both values, the ratio with its base, and a verdict
// against the bound in BENCHMARK.json. With a calibration file as third
// argument, a cell whose measured spread exceeds its bound is reported as
// unresolved instead of judged.
func compareMode(o options, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: -compare A.json B.json [CALIBRATION.json]")
	}
	var a, b record
	for i, dst := range []*record{&a, &b} {
		raw, err := os.ReadFile(args[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
	}
	bounds, err := readBounds(o.benchJSON)
	if err != nil {
		return err
	}
	var cal calibration
	if len(args) > 2 {
		raw, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &cal); err != nil {
			return fmt.Errorf("%s: %w", args[2], err)
		}
	}
	fmt.Printf("A = %s (%s, nproc %d)   B = %s (%s, nproc %d)\n", a.Commit, a.GoVersion, a.NProc, b.Commit, b.GoVersion, b.NProc)
	fmt.Printf("%-22s %-22s %14s %14s %12s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			fmt.Printf("%-22s missing from one side\n", w.name)
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			spread := 0.0
			if n := cal.Noise[w.name][m.Name]; n != nil {
				spread = n.Spread
			}
			fmt.Printf("%-22s %-22s %14.4f %14.4f %8.4f x A  %s\n", w.name, m.Name, va, vb, vb/va,
				verdict(va, vb, m.Better, bounds[m.Name], spread))
		}
	}
	return nil
}

// verdict judges b against a: worse or better when it moved by more than
// the bound in that direction, within-bound otherwise, unresolved when the
// calibration's spread for this cell is wider than the bound.
func verdict(a, b float64, better string, bound, spread float64) string {
	if spread > bound {
		return "unresolved (spread > bound)"
	}
	worse := (b - a) / a // positive = b is worse, for lower-is-better
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within-bound"
}

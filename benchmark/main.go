// Command benchmark is the repository's benchmark: four steady-state
// workloads driven through the two front doors a user has — a tcqd
// subprocess over TCP and the embedded telegraphcq.Open API — each checked
// against a plain-Go reference evaluator. See README.md.
//
//	bash benchmark/run.sh --workload join_fetch_wire --seed 1 --seconds 20 --trace 0
//	cd benchmark && go run .                  # all four workloads, untraced
//	cd benchmark && go run . -trace 1         # all four, traced: per-layer metrics and span files
//	cd benchmark && go run . -calibrate       # noise floor and bounds
//	cd benchmark && go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"telegraphcq/internal/chaos"
)

// clk is the one clock the harness reads: the repository's clock discipline
// (tcqlint's clockcheck) allows wall-clock access only through chaos.Clock.
var clk = chaos.Real()

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	calibrate bool
	compare   bool
	sets      int
	tcqdBin   string
	outDir    string
	benchJSON string
	resultOut string
	writeBnds bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same input")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "run length the frozen counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1: traced quarter-size run plus per-layer drivers; 0: end-to-end metrics")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run -sets full sets, report the noise floor, write CALIBRATION json")
	flag.BoolVar(&o.writeBnds, "write-bounds", false, "with -calibrate: rewrite the bounds in BENCHMARK.json from the measured spread")
	flag.BoolVar(&o.compare, "compare", false, "compare two BENCH_*.json files given as arguments")
	flag.IntVar(&o.sets, "sets", 5, "sets per -calibrate")
	flag.StringVar(&o.tcqdBin, "tcqd", "", "path of a built tcqd (default: built on demand into <out>/bin)")
	flag.StringVar(&o.outDir, "out", "out", "directory for traces, run records and on-demand builds")
	flag.StringVar(&o.benchJSON, "benchmark-json", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json to read bounds from (and write with -write-bounds)")
	flag.StringVar(&o.resultOut, "result-out", "", "also write the run's full record to this file")
	flag.Parse()

	// One load-generating process with at most two threads, whatever the box.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	var err error
	switch {
	case o.compare:
		err = compareMode(o, flag.Args())
	case o.calibrate:
		err = calibrateMode(o)
	case o.workload != "":
		err = singleMode(o)
	default:
		err = fullPassMode(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// ensureTcqd returns a tcqd binary, building it into <out>/bin when the
// caller (run.sh) did not supply one. The build runs in the working
// directory, which must lie inside the benchmark module.
func ensureTcqd(o *options) error {
	if o.tcqdBin != "" {
		return nil
	}
	bin, err := filepath.Abs(filepath.Join(o.outDir, "bin", "tcqd"))
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "telegraphcq/cmd/tcqd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build tcqd: %w", err)
	}
	o.tcqdBin = bin
	return nil
}

// singleMode runs one workload in this process and prints the contract's
// result line last.
func singleMode(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := ensureTcqd(&o); err != nil {
		return err
	}
	ro := runOpts{w: w, seed: o.seed, seconds: o.seconds, traced: o.trace != 0, tcqdBin: o.tcqdBin, outDir: o.outDir, setups: w.setups}
	if ro.traced {
		ro.setups = 1
	}
	res, err := runWorkload(ro)
	if err != nil {
		return err
	}
	if ro.traced {
		if err := runLayers(res, ro); err != nil {
			return err
		}
	}
	if o.resultOut != "" {
		if err := writeJSON(o.resultOut, res); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res)
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%s: results differ from the reference evaluator", w.name)
	}
	return nil
}

// contractLine renders the one-line JSON the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(res *result) (string, error) {
	want := endToEnd
	if res.Traced {
		want = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(want))
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		metrics[m.Name] = mv{got.Value, got.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}

func printResult(f *os.File, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced, quarter size"
	}
	fmt.Fprintf(f, "== %s (%s, seed %d): warm %d / sat %d / paced %d tuples at %.0f/s\n",
		res.Workload, mode, res.Seed, res.Warm, res.Sat, res.Paced, res.PacedRate)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, m := range endToEnd {
		order[m.Name] = i
	}
	for i, m := range perLayer {
		order[m.Name] = len(endToEnd) + i
	}
	sort.Slice(names, func(a, b int) bool { return order[names[a]] < order[names[b]] })
	for _, n := range names {
		m := res.Metrics[n]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(f, "  %-42s %14.4f %s%s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Fprintf(f, "  ops_attempted %d  ops_failed %d  correct %v  valid %v\n", res.Attempted, res.Failed, res.Correct, res.Valid)
	for _, n := range res.Notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a fresh process (so peak RSS, heap state
// and GC history belong to that workload alone) and returns its record.
func runChild(o options, workload string, seed uint64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(o.outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, trace))
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-tcqd", o.tcqdBin, "-out", o.outDir, "-result-out", out)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	return &res, runErr
}

// fullPassMode runs every workload once and writes the trajectory point.
func fullPassMode(o options) error {
	if err := ensureTcqd(&o); err != nil {
		return err
	}
	rec := newRecord(o)
	failed := false
	for _, w := range workloads {
		res, err := runChild(o, w.name, o.seed, o.trace)
		if res != nil {
			rec.Workloads[w.name] = res
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = true
		}
	}
	name := "BENCH_" + rec.Commit + ".json"
	if o.trace != 0 {
		name = "BENCH_" + rec.Commit + "_traced.json"
	}
	path := filepath.Join(o.outDir, name)
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed {
		return fmt.Errorf("one or more workloads failed")
	}
	return nil
}

// record is one point of the trajectory: every workload's metrics plus the
// machine and build facts needed to judge whether two points are comparable.
type record struct {
	Schema            string             `json:"schema"`
	Commit            string             `json:"commit"`
	GoVersion         string             `json:"go_version"`
	Kernel            string             `json:"kernel"`
	NProc             int                `json:"nproc"`
	HarnessGOMAXPROCS int                `json:"harness_gomaxprocs"`
	TcqdGOMAXPROCS    int                `json:"tcqd_gomaxprocs"`
	Seed              uint64             `json:"seed"`
	Seconds           float64            `json:"seconds"`
	Workloads         map[string]*result `json:"workloads"`
}

func newRecord(o options) *record {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // empty off Linux
	return &record{
		Schema:            "tcq-bench/1",
		Commit:            commitID(),
		GoVersion:         runtime.Version(),
		Kernel:            strings.TrimSpace(string(kernel)),
		NProc:             runtime.NumCPU(),
		HarnessGOMAXPROCS: runtime.GOMAXPROCS(0),
		TcqdGOMAXPROCS:    runtime.NumCPU(), // tcqd runs at default flags and environment
		Seed:              o.seed,
		Seconds:           o.seconds,
		Workloads:         map[string]*result{},
	}
}

// commitID names the trajectory point: TCQ_BENCH_COMMIT, else git's short
// hash, else "worktree" (the driver's checkout is not a git repository).
func commitID() string {
	if c := os.Getenv("TCQ_BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "worktree"
	}
	return strings.TrimSpace(string(out))
}

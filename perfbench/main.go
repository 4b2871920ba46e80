// Command perfbench is the repository's benchmark. For one workload it
// generates the inputs from --seed, drives the real refcheck / refcheckd
// binaries, checks every output against ground truth, prints one row of
// metrics with their units and, as its last line, a JSON result.
//
// It is run from the repository root through run.sh, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload scan-s50 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// is the separate traced run that calls each layer's public functions in
// process and reports the per-layer metrics. BENCHMARK.json lists the
// workloads and metrics; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is BENCHMARK.json, the contract this program's output must meet.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &s, nil
}

// bench is one invocation: where things are and what to run.
type bench struct {
	root  string // repository checkout the inputs and outputs live in
	bin   string // directory holding refcheck, refcheckd and refgen
	work  string // scratch directory for this run, removed at exit
	seed  int64
	trace bool
	size  sizes
}

// sizes is the amount of work a run does. --seconds scales it so that a
// run measures about that long on a 2-CPU host; a fixed amount of work (not
// a fixed duration) keeps cache growth and memory comparable between a
// fast and a slow commit.
type sizes struct {
	scanScale  int // refgen -scale of the scan-s50 tree
	scans      int // refcheck processes per scan-s50 run
	editScale  int // refgen -scale of the edit-s6 tree
	edits      int // one-file edits per edit-s6 run
	requests   int // requests per serve-mix run, across both clients
	hot        int // scale-1 corpora in the serve-mix hot set
	setups     int // set-ups per run; setup_s is their median
	crossCheck int // fresh serve-mix corpora re-checked against the CLI
}

func sizesFor(seconds int) sizes {
	return sizes{
		scanScale: 50, scans: max(1, seconds/10),
		editScale: 6, edits: max(2, seconds),
		requests: max(20, 40*seconds), hot: 4,
		setups: 3, crossCheck: 4,
	}
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	rows              []row // the human-readable report, in print order
}

// row is one printed figure. An end-to-end row uses the workload's own
// vocabulary (scan_s, edit_p50_s, lat_p95_ms, ...), which README.md maps to
// the generic JSON names; a traced row is a per-layer JSON metric.
type row struct {
	name  string
	value float64
	unit  string
}

// op counts one checked operation; err marks it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

// endToEnd records the end-to-end metrics from the set-up time, each
// operation's wall time in seconds, the throughput and the peak RSS.
func (r *result) endToEnd(setup float64, ops []float64, perSecond, rssMB float64) {
	r.set("setup_s", setup)
	r.set("op_p50_ms", median(ops)*1e3)
	r.set("op_tail_ms", tail(ops)*1e3)
	r.set("ops_per_s", perSecond)
	r.set("peak_rss_mb", rssMB)
}

func (r *result) show(name string, v float64, unit string) {
	r.rows = append(r.rows, row{name, v, unit})
}

type workload struct {
	name string
	run  func(b *bench) (*result, error)
}

var workloads = []workload{
	{"scan-s50", runScan},
	{"edit-s6", runEdit},
	{"serve-mix", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json), or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured length of a run at reference speed")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	bin := flag.String("bin", "", "directory with the refcheck, refcheckd and refgen binaries (run.sh sets it)")
	flag.Parse()

	if err := mainErr(*name, *seed, *seconds, *trace, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, bin string) error {
	var todo []workload
	if name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(name); ok {
		todo = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || bin == "" || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1, --trace 0 or 1, and --bin")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if trace == 1 {
		want = sp.PerLayer
	}
	for _, w := range todo {
		b := &bench{root: root, bin: bin, seed: seed, trace: trace == 1, size: sizesFor(seconds)}
		line, err := b.measure(w, seconds, want)
		if err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
		fmt.Println(line)
	}
	return nil
}

// measure runs one workload in a scratch directory of its own and returns
// its JSON result line, after printing the environment and its metrics.
func (b *bench) measure(w workload, seconds int, want []metricSpec) (string, error) {
	b.work = filepath.Join(b.root, ".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return "", err
	}
	defer func() {
		os.RemoveAll(b.work)
		quiesce() // the deletion's disk work finishes here, not in the next run
	}()
	fmt.Println(environment(b.root, w.name, b.seed, seconds, b.trace))
	res, err := w.run(b)
	if err != nil {
		return "", err
	}
	line, err := resultJSON(res, want)
	if err != nil {
		return "", err
	}
	if b.trace {
		for _, m := range want {
			res.show(m.Name, res.metrics[m.Name], m.Unit)
		}
	}
	printRows(w.name, res, b.trace)
	return line, nil
}

// resultJSON renders the result line, refusing a metric set that differs
// from BENCHMARK.json's or a value that is not a finite number.
func resultJSON(res *result, want []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(res.metrics) != len(want) {
		var extra []string
		for n := range res.metrics {
			if _, ok := out.Metrics[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printRows prints the run's figures: the end-to-end ones on one row, the
// per-layer ones one to a line.
func printRows(name string, res *result, trace bool) {
	fail := fmt.Sprintf("fail_ratio=%g (%d/%d)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if !trace {
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s", name)
		for _, r := range res.rows {
			fmt.Fprintf(&b, " %s=%.4g %s", r.name, r.value, r.unit)
		}
		fmt.Println(b.String(), fail)
	} else {
		fmt.Println(name, fail)
		for _, r := range res.rows {
			fmt.Printf("  %-28s %14.6g %s\n", r.name, r.value, r.unit)
		}
	}
	for _, f := range res.failures {
		fmt.Printf("  failure: %s\n", f)
	}
}

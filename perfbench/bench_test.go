package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

func readBenchmarkJSON(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCheckReportsRejectsMissingPlannedBug(t *testing.T) {
	truth := &corpus.Corpus{
		Planned: []corpus.PlannedBug{{Pattern: "P4", Function: "a"}, {Pattern: "P7", Function: "b"}},
		Baits:   []corpus.FalsePositiveBait{{Function: "bait"}},
	}
	all := []core.Report{{Pattern: "P4", Function: "a"}, {Pattern: "P7", Function: "b"}, {Pattern: "P5", Function: "bait"}}
	if err := checkReports(truth, all); err != nil {
		t.Fatalf("complete report list rejected: %v", err)
	}
	if err := checkReports(truth, all[1:]); err == nil {
		t.Fatal("report list missing a planned bug accepted")
	}
	extra := append(all[:2:2], core.Report{Pattern: "P1", Function: "clean"})
	if err := checkReports(truth, extra); err == nil {
		t.Fatal("report outside the plan and the baits accepted")
	}
}

func TestParseTextChecksSummary(t *testing.T) {
	out := "a/b.c:3:1: [P4/Leak] of_find_node in f: leak\n    suggestion: put it\n" +
		"a/b.c:9:2: [P6/UAF]  in g_h: pair\n\n2 reports (P4:1, P6:1) — Leak 1, UAF 1, NPD 0\nanalyzed 1 files\n"
	reps, err := parseText(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Function != "f" || reps[1].Pattern != "P6" || reps[1].Function != "g_h" {
		t.Fatalf("parsed %+v", reps)
	}
	if _, err := parseText(strings.Replace(out, "2 reports", "3 reports", 1)); err == nil {
		t.Fatal("listing that disagrees with its summary accepted")
	}
}

func TestSafeLinesAvoidCommentsAndContinuations(t *testing.T) {
	lines := strings.SplitAfter("int a;\n/* open\nstill */ int b;\n#define X(y) \\\n  (y)\nchar *s = \"/*\";\nint c;\n", "\n")
	got := safeLines(lines)
	want := []int{0, 1, 3, 5, 6, 7} // not inside the comment (2) or after a backslash (4)
	if len(got) != len(want) {
		t.Fatalf("safe lines %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("safe lines %v, want %v", got, want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONNames(t *testing.T) {
	sp := readBenchmarkJSON(t)
	seen := map[string]bool{}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses more than letters, digits, _, . and -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryMetricEmitted runs every workload, measured and traced, on small
// inputs and checks each emits exactly the metrics BENCHMARK.json lists,
// with every operation correct.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/refcheck", "./cmd/refcheckd", "./cmd/refgen")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	sp := readBenchmarkJSON(t)
	small := sizes{scanScale: 1, scans: 1, editScale: 1, edits: 2, requests: 20, hot: 2, setups: 1, crossCheck: 1}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			b := &bench{root: t.TempDir(), bin: bin, seed: 3, trace: trace, size: small}
			line, err := b.measure(w, 1, want)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]json.RawMessage
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %s", w.name, trace, line)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(out.Metrics), len(want))
			}
			if entries, _ := os.ReadDir(filepath.Join(b.root, ".bench_build", "work")); len(entries) != 0 {
				t.Errorf("%s trace=%v left its work directory behind", w.name, trace)
			}
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs); got != quantile(xs, 0.95) {
		t.Errorf("tail of 400 samples is %v, want the 95th percentile", got)
	}
	if got := tail(xs[:100]); got != quantile(xs[:100], 0.9) {
		t.Errorf("tail of 100 samples is %v, want the 90th percentile", got)
	}
	if got := tail(xs[:5]); got != median(xs[:5]) {
		t.Errorf("tail of 5 samples is %v, want the median", got)
	}
}

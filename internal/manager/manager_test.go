package manager

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/render"
)

// TestMain doubles as the worker executable: when the manager re-executes
// the test binary with the "repro-worker" argv, the shim runs the worker
// loop instead of the test suite — no separately built binary needed. With
// the "die=1" argument the shim instead reads the init frame and one shard,
// then exits before replying: a real process death mid-shard for the
// recovery tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "repro-worker" {
		if len(os.Args) > 2 && os.Args[2] == "die=1" {
			readFrame(os.Stdin)
			readFrame(os.Stdin)
			os.Exit(3)
		}
		if err := Worker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func workerArgv(extra ...string) []string {
	return append([]string{os.Args[0], "repro-worker"}, extra...)
}

// managerCorpus is a compact synthetic kernel exercising cross-file
// discovery (loop macros, wrappers, callback pairs) plus baits — the shapes
// a partitioned run could plausibly get wrong.
func managerCorpus() ([]cpg.Source, map[string]string) {
	c := corpus.Generate(corpus.Spec{
		Seed:           23,
		CleanPerModule: 2,
		FPBaits:        2,
		Plan: []corpus.ModulePlan{
			{Subsystem: "arch", Module: "arm",
				Patterns:   map[corpus.PatternID]int{"P4": 2, "P6": 1, "P9": 1},
				TopAPIs:    []string{"of_find_compatible_node", "of_find_matching_node"},
				MissingGet: 1},
			{Subsystem: "drivers", Module: "gpu",
				Patterns: map[corpus.PatternID]int{"P3": 1, "P5": 1, "P8": 1},
				TopAPIs:  []string{"of_graph_get_port_by_id", "for_each_child_of_node"}},
			{Subsystem: "net", Module: "ipv4",
				Patterns: map[corpus.PatternID]int{"P2": 1, "P8": 1},
				TopAPIs:  []string{"sock_put"}},
		},
	})
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs, c.Headers
}

// renderOut renders a run exactly as the refcheck CLI does,
// so equality here is byte-identity of what the user sees.
func renderOut(run *core.Run) string {
	var b bytes.Buffer
	render.WriteReports(&b, run.Reports)
	render.WriteSummary(&b, run.Reports, run.Summary)
	return b.String()
}

func analyzeRef(t *testing.T, srcs []cpg.Source, headers map[string]string) string {
	t.Helper()
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: srcs, Headers: headers,
		Options: core.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Reports) == 0 {
		t.Fatal("reference run produced no reports")
	}
	return renderOut(run)
}

// TestManagerMatchesAnalyze is the end-to-end determinism pin: real worker
// subprocesses at 1, 2, and 4 procs must render byte-identically to a
// single-process core.Analyze over the same corpus.
func TestManagerMatchesAnalyze(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	for _, procs := range []int{1, 2, 4} {
		tr := obs.New("manager-test")
		run, err := Run(context.Background(), Config{
			Procs:     procs,
			WorkerCmd: workerArgv(),
			Trace:     tr,
		}, srcs, headers)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got := renderOut(run); got != want {
			t.Errorf("procs=%d: output differs from single-process Analyze", procs)
		}
		stats := tr.Reg().Snapshot()
		if stats.Counters["manager.worker.deaths"] != 0 {
			t.Errorf("procs=%d: unexpected worker deaths: %d",
				procs, stats.Counters["manager.worker.deaths"])
		}
	}
}

// TestWorkerDeathRecovery kills one worker mid-shard (it exits after
// receiving work, before replying) and asserts the manager re-queues the
// lost shard onto the surviving worker and still renders byte-identically.
func TestWorkerDeathRecovery(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	tr := obs.New("manager-death-test")
	run, err := Run(context.Background(), Config{
		Procs: 2,
		WorkerCmdFor: func(slot int) []string {
			if slot == 0 {
				return workerArgv("die=1")
			}
			return workerArgv()
		},
		Trace: tr,
	}, srcs, headers)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Reg().Snapshot()
	if stats.Counters["manager.worker.deaths"] < 1 {
		t.Error("expected at least one worker death")
	}
	if stats.Counters["manager.shard.requeues"] < 1 {
		t.Error("expected the dead worker's shard to be re-queued")
	}
	if got := renderOut(run); got != want {
		t.Error("output differs from single-process Analyze after worker death")
	}
}

// TestAllWorkersDieInlineDrain arms the crash hook on every slot: each
// worker dies on its first shard, so the manager must drain the whole queue
// inline and still produce identical output.
func TestAllWorkersDieInlineDrain(t *testing.T) {
	srcs, headers := managerCorpus()
	want := analyzeRef(t, srcs, headers)

	tr := obs.New("manager-drain-test")
	run, err := Run(context.Background(), Config{
		Procs:     2,
		WorkerCmd: workerArgv("die=1"),
		Trace:     tr,
	}, srcs, headers)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Reg().Snapshot()
	if stats.Counters["manager.worker.deaths"] != 2 {
		t.Errorf("worker deaths = %d, want 2", stats.Counters["manager.worker.deaths"])
	}
	if stats.Counters["manager.shard.inline"] < 1 {
		t.Error("expected inline drain of stranded shards")
	}
	if got := renderOut(run); got != want {
		t.Error("output differs from single-process Analyze after total worker loss")
	}
}

// TestManagerNoWorkerCommand pins the config error path.
func TestManagerNoWorkerCommand(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, nil, nil); err == nil {
		t.Fatal("expected an error with no worker command")
	}
}

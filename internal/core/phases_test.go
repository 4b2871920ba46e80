package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apidb"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/obs"
)

// phasesSpec is a compact corpus covering every anti-pattern family plus a
// bait, so the phased pipeline is exercised across cross-file discovery
// (loops, wrappers, callback pairs) — the parts a partitioned run could
// plausibly get wrong.
func phasesSpec() corpus.Spec {
	return corpus.Spec{
		Seed:           11,
		CleanPerModule: 2,
		FPBaits:        2,
		Plan: []corpus.ModulePlan{
			{Subsystem: "arch", Module: "arm",
				Patterns:   map[corpus.PatternID]int{"P4": 2, "P6": 1, "P7": 1, "P9": 1},
				TopAPIs:    []string{"of_find_compatible_node", "of_find_matching_node"},
				MissingGet: 1},
			{Subsystem: "drivers", Module: "mfd",
				Patterns: map[corpus.PatternID]int{"P1": 1},
				TopAPIs:  []string{"pm_runtime_get_sync"}},
			{Subsystem: "drivers", Module: "gpu",
				Patterns: map[corpus.PatternID]int{"P3": 1, "P5": 1, "P8": 1},
				TopAPIs:  []string{"of_graph_get_port_by_id", "for_each_child_of_node"}},
			{Subsystem: "net", Module: "ipv4",
				Patterns:  map[corpus.PatternID]int{"P2": 1, "P8": 1},
				TopAPIs:   []string{"sock_put"},
				PinnedUAD: 1},
		},
	}
}

func phasesCorpus() ([]cpg.Source, map[string]string) {
	c := corpus.Generate(phasesSpec())
	srcs := make([]cpg.Source, len(c.Files))
	for i, f := range c.Files {
		srcs[i] = cpg.Source{Path: f.Path, Content: f.Content}
	}
	return srcs, c.Headers
}

// runPhased drives the four-phase pipeline in-process at a given shard count,
// exactly as the multi-process manager does (minus the wire, which
// cpg's codec tests pin separately), tracing into tr.
func runPhased(t *testing.T, srcs []cpg.Source, headers map[string]string, shards int, opt Options, tr *obs.Trace) *Run {
	t.Helper()
	ctx := context.Background()
	db := apidb.New()
	opt.DB = db
	req := Request{Sources: srcs, Headers: headers, Options: opt, Trace: tr}

	var arts []*cpg.ShardArtifact
	for _, shard := range Partition(srcs, shards) {
		art, err := LocalPass(ctx, req, shard)
		if err != nil {
			t.Fatalf("shards=%d: LocalPass: %v", shards, err)
		}
		arts = append(arts, art)
	}
	xsp := tr.Root().Child("phase:exchange")
	merged, disc := Exchange(db, arts)
	xsp.End()
	run, err := GlobalPass(ctx, req, merged, disc)
	if err != nil {
		t.Fatalf("shards=%d: GlobalPass: %v", shards, err)
	}
	return run
}

// phaseView is what a traced run exposes about the path it took: the set of
// top-level phase span names and the pipeline's work counters.
func phaseView(tr *obs.Trace) (phases map[string]bool, counters map[string]int64) {
	phases = map[string]bool{}
	for _, ph := range obs.Stats(tr).Phases {
		phases[ph.Name] = true
	}
	counters = map[string]int64{}
	for name, v := range tr.Reg().Counters() {
		if strings.HasPrefix(name, "frontend.") || strings.HasPrefix(name, "reports.") ||
			name == "checker.functions" {
			counters[name] = v
		}
	}
	return phases, counters
}

// TestPhasedPipelineMatchesAnalyze is the core-layer determinism pin:
// Partition → LocalPass per shard → Exchange → GlobalPass must reproduce
// Analyze's reports and summary exactly at every shard count, including
// shard counts exceeding the file count. At shards 1 and 3 the traced runs
// must also agree on the phases they ran and the work they counted: Analyze
// is the same phases in one process, not a parallel implementation.
func TestPhasedPipelineMatchesAnalyze(t *testing.T) {
	srcs, headers := phasesCorpus()
	opt := Options{Workers: 2, Confirm: true}
	atr := obs.New("analyze")
	want, err := Analyze(context.Background(), Request{Sources: srcs, Headers: headers, Options: opt, Trace: atr})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reports) == 0 {
		t.Fatal("reference run produced no reports")
	}
	wantPhases, wantCounters := phaseView(atr)
	if !wantPhases["phase:exchange"] || wantCounters["checker.functions"] == 0 {
		t.Fatalf("Analyze trace lacks the phased pipeline: phases %v, counters %v", wantPhases, wantCounters)
	}

	for _, shards := range []int{1, 2, 3, 7, len(srcs) + 5} {
		tr := obs.New("phased")
		run := runPhased(t, srcs, headers, shards, opt, tr)
		if shards == 1 || shards == 3 {
			phases, counters := phaseView(tr)
			if !reflect.DeepEqual(phases, wantPhases) {
				t.Errorf("shards=%d: phases %v, Analyze ran %v", shards, phases, wantPhases)
			}
			if !reflect.DeepEqual(counters, wantCounters) {
				t.Errorf("shards=%d: counters %v, Analyze counted %v", shards, counters, wantCounters)
			}
		}
		if !reflect.DeepEqual(run.Reports, want.Reports) {
			t.Errorf("shards=%d: reports differ from Analyze (%d vs %d)",
				shards, len(run.Reports), len(want.Reports))
		}
		if run.Summary != want.Summary {
			t.Errorf("shards=%d: summary %+v != %+v", shards, run.Summary, want.Summary)
		}
		if run.Unit == nil || len(run.Unit.Errors) != len(want.Unit.Errors) {
			t.Errorf("shards=%d: unit errors differ", shards)
		}
	}
}

// TestPartition pins the partition function's contract: deterministic,
// disjoint, sorted round-robin, clamped shard count.
func TestPartition(t *testing.T) {
	srcs := []cpg.Source{
		{Path: "c.c"}, {Path: "a.c"}, {Path: "b.c"}, {Path: "d.c"},
	}
	parts := Partition(srcs, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	got := [][]string{}
	for _, p := range parts {
		var paths []string
		for _, s := range p {
			paths = append(paths, s.Path)
		}
		got = append(got, paths)
	}
	want := [][]string{{"a.c", "d.c"}, {"b.c"}, {"c.c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partition = %v, want %v", got, want)
	}

	if p := Partition(srcs, 99); len(p) != len(srcs) {
		t.Errorf("oversharded partition has %d shards, want %d", len(p), len(srcs))
	}
	if p := Partition(srcs, 0); len(p) != 1 {
		t.Errorf("shards=0 partition has %d shards, want 1", len(p))
	}
	if p := Partition(nil, 4); p != nil {
		t.Errorf("empty corpus partition = %v, want nil", p)
	}
}

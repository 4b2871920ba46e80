// Package repro holds the benchmark harness: one benchmark per table and
// figure in the paper's evaluation, plus the ablations called out in
// DESIGN.md. Each benchmark runs the full pipeline for its experiment and
// reports the headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every row the paper reports
// (EXPERIMENTS.md records the paper-vs-measured comparison).
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/gitlog"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/refsim"
	"repro/internal/study"
	"repro/internal/word2vec"
)

// benchAnalyze runs the pipeline with a trace attached (so cache benchmarks
// can read hit metrics), failing the benchmark on error.
func benchAnalyze(b *testing.B, sources []cpg.Source, headers map[string]string, opt core.Options) *core.Run {
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources, Headers: headers, Options: opt, Trace: obs.New("bench"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// Shared fixtures: the benchmarked pipelines are deterministic, so heavyweight
// inputs are built once and reused across iterations; per-iteration work is
// the experiment computation itself.
var (
	histOnce sync.Once
	hist     *gitlog.History

	corpOnce    sync.Once
	corp        *corpus.Corpus
	corpSources []cpg.Source
)

func history() *gitlog.History {
	histOnce.Do(func() {
		hist = gitlog.Generate(corpus.Spec{Seed: 1, Background: 6000})
	})
	return hist
}

func kernelCorpus() (*corpus.Corpus, []cpg.Source) {
	corpOnce.Do(func() {
		corp = corpus.Generate(corpus.Spec{Seed: 1})
		for _, f := range corp.Files {
			corpSources = append(corpSources, cpg.Source{Path: f.Path, Content: f.Content})
		}
	})
	return corp, corpSources
}

// analyzeCorpus runs core.Analyze, uncached and unconfirmed, over the
// shared kernel corpus at the given worker count.
func analyzeCorpus(workers int) *core.Run {
	c, sources := kernelCorpus()
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: sources, Headers: c.Headers, Options: core.Options{Workers: workers},
	})
	if err != nil {
		panic("analyzeCorpus: " + err.Error())
	}
	return run
}

// BenchmarkFigure1GrowthTrend mines the history and computes the per-year
// growth trend (Figure 1). Paper shape: single digits in 2005 rising to
// >100/year in the 5.x era, 1,033 total.
func BenchmarkFigure1GrowthTrend(b *testing.B) {
	h := history()
	var last []study.YearCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		last = study.New(h, res).GrowthTrend()
	}
	b.ReportMetric(float64(last[len(last)-1].Cumulative), "total_bugs")
	b.ReportMetric(float64(last[0].Count), "bugs_2005")
	b.ReportMetric(float64(last[len(last)-2].Count), "bugs_2021")
}

// BenchmarkTable2Classification computes the Table 2 taxonomy shares. Paper:
// leak 71.7%, missing-dec 67.2%, intra 57.1%, UAD 9.1%.
func BenchmarkTable2Classification(b *testing.B) {
	h := history()
	var t2 study.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		t2 = study.New(h, res).Classification()
	}
	b.ReportMetric(100*float64(t2.LeakCount)/float64(t2.Total), "leak_pct")
	b.ReportMetric(100*float64(t2.IntraDec)/float64(t2.Total), "intra_pct")
	b.ReportMetric(100*float64(t2.UADCount)/float64(t2.Total), "uad_pct")
}

// BenchmarkFigure2Distribution computes the subsystem distribution and bug
// density. Paper: drivers 588 bugs; block densest (18 bugs / 65 KLOC).
func BenchmarkFigure2Distribution(b *testing.B) {
	h := history()
	var dist []study.SubsystemStat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		dist = study.New(h, res).Distribution()
	}
	var drivers, blockDensity float64
	for _, d := range dist {
		if d.Subsystem == "drivers" {
			drivers = float64(d.Bugs)
		}
		if d.Subsystem == "block" {
			blockDensity = d.Density
		}
	}
	b.ReportMetric(drivers, "drivers_bugs")
	b.ReportMetric(blockDensity*1000, "block_bugs_per_MLOC")
}

// BenchmarkFigure3Lifetimes computes the lifetime statistics. Paper: 567
// tagged, 75.7% >1yr, 19 >10yr, 23 full-span.
func BenchmarkFigure3Lifetimes(b *testing.B) {
	h := history()
	var lt study.LifetimeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Mine(h, apidb.New())
		lt = study.New(h, res).Lifetimes()
	}
	b.ReportMetric(float64(lt.Tagged), "tagged")
	b.ReportMetric(100*float64(lt.OverOneYear)/float64(lt.Tagged), "over_1y_pct")
	b.ReportMetric(float64(lt.OverDecade), "over_10y")
	b.ReportMetric(float64(lt.FullSpan), "full_span")
}

// BenchmarkTable3Word2Vec trains the CBOW model on the commit corpus and
// measures the keyword similarities. Paper: find~get 0.73 is the peak;
// unhold bottoms out.
func BenchmarkTable3Word2Vec(b *testing.B) {
	h := history()
	var t3 study.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 = study.ComputeTable3(h, word2vec.Config{Dim: 32, Epochs: 2, Seed: 5})
	}
	b.ReportMetric(t3.At("get", "find"), "sim_find_get")
	b.ReportMetric(t3.At("put", "find"), "sim_find_put")
	b.ReportMetric(t3.At("get", "foreach"), "sim_foreach_get")
	b.ReportMetric(t3.At("unhold", "find"), "sim_find_unhold")
}

// BenchmarkTable4NewBugs runs the full §6 pipeline — corpus → CPG → nine
// checkers → dynamic confirmation — and reports the Table 4 totals. Paper:
// 351 new bugs (296/48/7 leak/UAF/NPD), 240 confirmed, 3 rejected, 5 FP.
func BenchmarkTable4NewBugs(b *testing.B) {
	c, _ := kernelCorpus()
	var tot study.Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := study.EvaluateNewBugs(c, analyzeCorpus(0).Reports)
		tot = study.Total(nb.Table4())
	}
	b.ReportMetric(float64(tot.NewBugs), "new_bugs")
	b.ReportMetric(float64(tot.Leak), "leak")
	b.ReportMetric(float64(tot.UAF), "uaf")
	b.ReportMetric(float64(tot.NPD), "npd")
	b.ReportMetric(float64(tot.CFM), "confirmed")
	b.ReportMetric(float64(tot.PR), "rejected")
	b.ReportMetric(float64(tot.FP), "false_positives")
}

// BenchmarkTable5ModuleDetail reproduces the per-module detail. Paper spot
// checks: arch/arm 50 bugs with P4[42]; drivers/clk 37; drivers/mfd P1[1].
func BenchmarkTable5ModuleDetail(b *testing.B) {
	c, _ := kernelCorpus()
	var rows []study.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = study.EvaluateNewBugs(c, analyzeCorpus(0).Reports).Table5()
	}
	var arm, clk float64
	for _, r := range rows {
		if r.Subsystem == "arch" && r.Module == "arm" {
			arm = float64(r.Bugs)
		}
		if r.Subsystem == "drivers" && r.Module == "clk" {
			clk = float64(r.Bugs)
		}
	}
	b.ReportMetric(float64(len(rows)), "modules")
	b.ReportMetric(arm, "arch_arm_bugs")
	b.ReportMetric(clk, "drivers_clk_bugs")
}

// BenchmarkTable6ErrorProneAPIs verifies the Appendix A inventory against
// the knowledge base and measures how many inventory APIs actually caused
// detections in the corpus run.
func BenchmarkTable6ErrorProneAPIs(b *testing.B) {
	c, _ := kernelCorpus()
	var inventory, caused float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := apidb.New()
		listed := map[string]bool{}
		n := 0
		for _, row := range apidb.Table6() {
			for _, api := range row.APIs {
				n++
				listed[api] = true
				if db.Lookup(api) == nil && db.Loop(api) == nil {
					b.Fatalf("inventory API %s missing from knowledge base", api)
				}
			}
		}
		inventory = float64(n)
		hit := map[string]bool{}
		for _, pb := range c.Planned {
			if listed[pb.API] {
				hit[pb.API] = true
			}
		}
		caused = float64(len(hit))
	}
	b.ReportMetric(inventory, "inventory_apis")
	b.ReportMetric(caused, "apis_causing_bugs")
}

// BenchmarkAblationMiningStages compares keyword-only mining with the full
// two-level pipeline (paper: 1,825 candidates shrink to 1,033 confirmed
// bugs — keyword matching alone over-reports by ~77%).
func BenchmarkAblationMiningStages(b *testing.B) {
	h := history()
	var res *mine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = mine.Mine(h, apidb.New())
	}
	b.ReportMetric(float64(len(res.Candidates)), "stage1_keyword_only")
	b.ReportMetric(float64(len(res.Confirmed)), "stage2_impl_check")
	b.ReportMetric(float64(len(res.Dataset)), "final_dataset")
	b.ReportMetric(float64(len(res.RemovedWrongPatches)), "wrong_patches_removed")
}

// BenchmarkAblationSmartLoopRegistry removes the smartloop knowledge
// (registry + discovery results) after graph construction and measures the
// damage: P3 recall collapses and the loop-injected references start
// polluting the other checkers (this is why §6.1 builds a dedicated lexer
// parser for M_SL).
func BenchmarkAblationSmartLoopRegistry(b *testing.B) {
	c, _ := kernelCorpus()
	plannedP3 := 0
	for _, pb := range c.Planned {
		if pb.Pattern == "P3" {
			plannedP3++
		}
	}
	var withP3, withoutP3, extraWithout float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := analyzeCorpus(0)
		unit, full := run.Unit, run.Reports
		n := 0
		for _, r := range full {
			if r.Pattern == core.P3 {
				n++
			}
		}
		withP3 = float64(n)

		for _, l := range unit.DB.Loops() {
			unit.DB.DeleteLoop(l.Name)
		}
		ablated := core.NewEngine().CheckUnitFactsContext(context.Background(), facts.NewUnit(unit))
		n = 0
		for _, r := range ablated {
			if r.Pattern == core.P3 {
				n++
			}
		}
		withoutP3 = float64(n)
		extraWithout = float64(len(ablated) - len(full))
	}
	b.ReportMetric(float64(plannedP3), "planned_p3")
	b.ReportMetric(withP3, "p3_with_registry")
	b.ReportMetric(withoutP3, "p3_without_registry")
	b.ReportMetric(extraWithout, "report_delta_without")
}

// BenchmarkAblationConfirmation measures what dynamic confirmation adds:
// with refsim, the pinned-UAD reports are separated from real UAFs; without
// it every report would count as confirmed.
func BenchmarkAblationConfirmation(b *testing.B) {
	c, _ := kernelCorpus()
	var confirmed, rejected, naive float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := study.EvaluateNewBugs(c, analyzeCorpus(0).Reports)
		tot := study.Total(nb.Table4())
		confirmed = float64(tot.CFM)
		rejected = float64(tot.PR)
		naive = float64(tot.NewBugs)
	}
	b.ReportMetric(naive, "naive_all_confirmed")
	b.ReportMetric(confirmed, "refsim_confirmed")
	b.ReportMetric(rejected, "refsim_rejected")
}

// BenchmarkCheckerPipeline measures the raw analysis throughput: source
// bytes through cpp → parse → CFG → CPG → nine checkers.
func BenchmarkCheckerPipeline(b *testing.B) {
	c, _ := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeCorpus(0)
	}
}

// BenchmarkPipelineParallel sweeps the Workers knob over the full pipeline —
// sharded preprocess+parse, CPG assembly, nine checkers, batched refsim
// confirmation — so the cost of the parallel path can be compared across
// worker counts. Output is byte-identical at every worker count; only wall
// time may differ.
func BenchmarkPipelineParallel(b *testing.B) {
	c, sources := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			var reports []core.Report
			for i := 0; i < b.N; i++ {
				run := benchAnalyze(b, sources, headers, core.Options{
					Workers: workers,
					Confirm: true,
				})
				reports = run.Reports
			}
			b.ReportMetric(float64(len(reports)), "reports")
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkPipelineLarge runs the uncached pipeline over a Scale-6 corpus
// (~1800 files, ~50 KLOC — the same shape `refgen -scale` emits, just small
// enough for a benchmark loop) and reports peak_heap_mb, the maximum heap
// in use sampled during the run. This is the number the streaming front end
// bounds: tokens are released per translation unit as ASTs replace them, so
// peak memory tracks per-TU working set plus ASTs, not whole-corpus token
// streams, so a regression back to whole-corpus retention is loud.
func BenchmarkPipelineLarge(b *testing.B) {
	c := corpus.Generate(corpus.Spec{Seed: 1, Scale: 6})
	sources := make([]cpg.Source, len(c.Files))
	bytes := 0
	for i, f := range c.Files {
		sources[i] = cpg.Source{Path: f.Path, Content: f.Content}
		bytes += len(f.Content)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}

	// Peak-heap sampler: poll HeapInuse while the pipeline runs. Sampling
	// (vs a single post-run read) catches the mid-run maximum, which is the
	// quantity streaming is supposed to bound.
	var peak atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			for {
				cur := peak.Load()
				if ms.HeapInuse <= cur || peak.CompareAndSwap(cur, ms.HeapInuse) {
					break
				}
			}
		}
	}()

	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	var reports []core.Report
	for i := 0; i < b.N; i++ {
		run := benchAnalyze(b, sources, headers, core.Options{Confirm: true})
		reports = run.Reports
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(peak.Load())/(1<<20), "peak_heap_mb")
	b.ReportMetric(float64(len(reports)), "reports")
	b.ReportMetric(float64(len(sources)), "files")
}

// BenchmarkPipelineCache measures the tiered analysis cache end to end:
// "cold" runs the full pipeline into a fresh cache directory every iteration
// (the write-through overhead, now batched into per-shard pack files);
// "warm" reopens a populated directory with a fresh handle every iteration
// (the disk tier — pack index load plus entry decode, with a cold L1);
// "l1-warm" re-runs on one long-lived handle (the in-memory tier — decoded
// entries served straight from L1, no disk I/O and no decode); and
// "concurrent-dedup" issues four identical requests at once against a cold
// cache (single-flight: one computation, three runs served from the
// leader's result). All report the unit-cache hit rate.
func BenchmarkPipelineCache(b *testing.B) {
	c, sources := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}

	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "bench-cache-")
			if err != nil {
				b.Fatal(err)
			}
			cache, err := analysiscache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run := benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true})
			b.StopTimer()
			if run.Metric("cache.unit.hit") > 0 {
				hits++
			}
			os.RemoveAll(dir)
			b.StartTimer()
		}
		b.ReportMetric(float64(hits)/float64(b.N), "unit_hit_rate")
	})

	b.Run("warm", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "bench-cache-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		populate, err := analysiscache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		benchAnalyze(b, sources, headers, core.Options{Cache: populate, Confirm: true})
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			// A fresh handle per iteration keeps this row honest about the
			// disk tier: the pack index is re-read and the entry re-decoded
			// every time, with an empty L1.
			b.StopTimer()
			cache, err := analysiscache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run := benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true})
			if run.Metric("cache.unit.hit") > 0 {
				hits++
			}
			reports = run.Reports
		}
		b.ReportMetric(float64(hits)/float64(b.N), "unit_hit_rate")
		b.ReportMetric(float64(len(reports)), "reports")
	})

	b.Run("l1-warm", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "bench-cache-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cache, err := analysiscache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true}) // populate both tiers
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			run := benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true})
			if run.Metric("cache.unit.hit") > 0 {
				hits++
			}
			reports = run.Reports
		}
		b.ReportMetric(float64(hits)/float64(b.N), "unit_hit_rate")
		b.ReportMetric(float64(len(reports)), "reports")
	})

	b.Run("concurrent-dedup", func(b *testing.B) {
		const callers = 4
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		leaders := int64(0)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "bench-cache-")
			if err != nil {
				b.Fatal(err)
			}
			cache, err := analysiscache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			runs := make([]*core.Run, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			b.StartTimer()
			for j := 0; j < callers; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					<-start
					runs[j] = benchAnalyze(b, sources, headers, core.Options{Cache: cache, Confirm: true})
				}(j)
			}
			close(start)
			wg.Wait()
			b.StopTimer()
			for _, run := range runs {
				leaders += run.Metric("cache.singleflight.leader")
			}
			os.RemoveAll(dir)
			b.StartTimer()
		}
		b.ReportMetric(float64(leaders)/float64(b.N), "computes_per_4_reqs")
	})
}

// BenchmarkPipelineObs measures the observability tax on the full pipeline:
// "off" runs untraced (obs.Nop(); every span/counter call is a nil-receiver
// no-op), "on" runs with a live trace recording every span and counter in
// the catalog. The PR-5 budget is <5% overhead for "off" relative to the
// pre-obs pipeline and the on/off gap stays small because span creation is
// per-TU/per-function, not per-token. perfbench's trace.overhead_ratio row
// tracks the same tax on the real binary.
func BenchmarkPipelineObs(b *testing.B) {
	c, sources := kernelCorpus()
	bytes := 0
	for _, f := range c.Files {
		bytes += len(f.Content)
	}
	headers := map[string]string{}
	for p, s := range c.Headers {
		headers[p] = s
	}
	opt := core.Options{Confirm: true}

	run := func(b *testing.B, tr func() *obs.Trace) {
		b.SetBytes(int64(bytes))
		b.ReportAllocs()
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			r, err := core.Analyze(context.Background(), core.Request{
				Sources: sources, Headers: headers, Options: opt, Trace: tr(),
			})
			if err != nil {
				b.Fatal(err)
			}
			reports = r.Reports
		}
		b.ReportMetric(float64(len(reports)), "reports")
	}

	b.Run("off", func(b *testing.B) { run(b, obs.Nop) })
	b.Run("on", func(b *testing.B) { run(b, func() *obs.Trace { return obs.New("bench") }) })
}

// BenchmarkCheckerPhase isolates the checking phase from the front end on a
// prebuilt unit, in the two states the facts layer creates: "facts-cold"
// computes every function's facts and runs the nine pattern queries
// (CheckUnitFactsContext on a fresh UnitFacts each iteration); "facts-warm"
// reuses a fully memoized UnitFacts, so each iteration is the pattern
// queries alone — the work every checker after the first pays on a function
// whose facts another checker already computed. The gap between the two is
// the cost the shared facts layer computes exactly once.
func BenchmarkCheckerPhase(b *testing.B) {
	ctx := context.Background()
	unit := analyzeCorpus(0).Unit

	b.Run("facts-cold", func(b *testing.B) {
		b.ReportAllocs()
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			reports = core.NewEngine().CheckUnitFactsContext(ctx, facts.NewUnit(unit))
		}
		b.ReportMetric(float64(len(reports)), "reports")
	})

	b.Run("facts-warm", func(b *testing.B) {
		uf := facts.NewUnit(unit)
		core.NewEngine().CheckUnitFactsContext(ctx, uf) // memoize every function's facts
		b.ReportAllocs()
		b.ResetTimer()
		var reports []core.Report
		for i := 0; i < b.N; i++ {
			reports = core.NewEngine().CheckUnitFactsContext(ctx, uf)
		}
		b.ReportMetric(float64(len(reports)), "reports")
	})
}

// BenchmarkRefsimReplay measures the dynamic oracle in isolation.
func BenchmarkRefsimReplay(b *testing.B) {
	reports := analyzeCorpus(0).Reports
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reports {
			refsim.Replay(r.Witness, refsim.Claim{Impact: r.Impact.String(), Object: r.Object})
		}
	}
	b.ReportMetric(float64(len(reports)), "replays_per_op")
}

// BenchmarkCheckerScaling sweeps the corpus size (clean functions per
// module) and reports throughput, showing how analysis cost scales with the
// amount of non-buggy code around the same bug population.
func BenchmarkCheckerScaling(b *testing.B) {
	for _, clean := range []int{2, 8, 16} {
		c := corpus.Generate(corpus.Spec{Seed: 1, CleanPerModule: clean})
		var sources []cpg.Source
		bytes := 0
		for _, f := range c.Files {
			sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
			bytes += len(f.Content)
		}
		b.Run(fmt.Sprintf("clean=%d", clean), func(b *testing.B) {
			b.SetBytes(int64(bytes))
			var n int
			for i := 0; i < b.N; i++ {
				run, err := core.Analyze(context.Background(), core.Request{Sources: sources, Headers: c.Headers})
				if err != nil {
					b.Fatal(err)
				}
				n = len(run.Reports)
			}
			b.ReportMetric(c.KLOC(), "kloc")
			b.ReportMetric(float64(n), "reports")
		})
	}
}

// BenchmarkWord2VecScaling sweeps the training-corpus size, showing how the
// Table 3 signal strengthens (and costs grow) with more commit text.
func BenchmarkWord2VecScaling(b *testing.B) {
	for _, bg := range []int{1000, 4000} {
		h := gitlog.Generate(corpus.Spec{Seed: 1, Background: bg})
		b.Run(fmt.Sprintf("background=%d", bg), func(b *testing.B) {
			var t3 study.Table3
			for i := 0; i < b.N; i++ {
				t3 = study.ComputeTable3(h, word2vec.Config{Dim: 32, Epochs: 2, Seed: 5})
			}
			b.ReportMetric(t3.At("get", "find"), "sim_find_get")
			b.ReportMetric(float64(t3.Model.VocabSize()), "vocab")
		})
	}
}

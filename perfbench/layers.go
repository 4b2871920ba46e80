package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/apidb"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/facts"
	"repro/internal/loader"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/render"
)

// pass is one run of the analysis pipeline through its public phase
// functions, each call timed from here. The program's own trace is on, so
// its counters can be read; this file adds no spans to it.
type pass struct {
	files                       int
	local, exchange, assemble   time.Duration
	cold, warm                  time.Duration // facts+check, then check alone on the memoized facts
	tokens, apis, fns, computed int64
	reports                     []core.Report
	summary                     core.UnitSummary
	uf                          *facts.UnitFacts
}

// runPass runs the pipeline the way core.GlobalPass sequences it: local
// pass, exchange, assembly, then facts and checking.
func runPass(ctx context.Context, sources []cpg.Source, headers map[string]string) (*pass, error) {
	p := &pass{files: len(sources)}
	tr := obs.New("perfbench")
	req := core.Request{Sources: sources, Headers: headers, Trace: tr}

	t := time.Now()
	var arts []*cpg.ShardArtifact
	for _, shard := range core.Partition(sources, 1) {
		art, err := core.LocalPass(ctx, req, shard)
		if err != nil {
			return nil, err
		}
		arts = append(arts, art)
	}
	p.local = time.Since(t)
	p.tokens = tr.Reg().Counter("frontend.tokens")

	db := apidb.New()
	t = time.Now()
	merged, disc := core.Exchange(db, arts)
	p.exchange = time.Since(t)
	p.apis = int64(len(disc.APIs))

	t = time.Now()
	u := (&cpg.Builder{DB: db, Obs: tr.Root()}).AssembleContext(ctx, merged, &disc)
	p.assemble = time.Since(t)
	p.fns = int64(len(u.Functions))
	p.summary = core.UnitSummary{
		Files: len(u.Files), Functions: len(u.Functions),
		DiscoveredStructs: len(u.DiscoveredStructs), DiscoveredAPIs: len(u.DiscoveredAPIs),
		DiscoveredLoops: len(u.DiscoveredLoops), DiscoveredDeviations: len(u.DiscoveredDeviations),
	}

	engine, err := core.NewEngineFor(nil)
	if err != nil {
		return nil, err
	}
	engine.Obs = tr.Root()
	t = time.Now()
	p.uf = facts.NewUnit(u)
	p.reports = engine.CheckUnitFactsContext(ctx, p.uf)
	p.cold = time.Since(t)
	p.computed = p.uf.Computes()
	t = time.Now()
	engine.CheckUnitFactsContext(ctx, p.uf)
	p.warm = time.Since(t)
	return p, ctx.Err()
}

// factsTime is the facts layer's share of the cold check: the cold check
// minus the warm one, which reuses every memoized fact.
func (p *pass) factsTime() time.Duration { return max(0, p.cold-p.warm) }

// traceLayers is the traced run's per-layer ledger over one tree. It
// records the layer metrics into res and checks the pipeline's reports.
func (b *bench) traceLayers(res *result, tree string, truth *corpus.Corpus) error {
	ctx := context.Background()
	release() // the heap peak is this ledger's, not the workload's garbage
	sampler := startSampler()
	start := time.Now()

	t := time.Now()
	loaded, err := loader.LoadDirs(tree)
	if err != nil {
		return err
	}
	load := time.Since(t)
	full, err := runPass(ctx, loaded.Sources, loaded.Headers)
	if err != nil {
		return err
	}
	var perPattern time.Duration
	for _, pat := range core.RegisteredPatterns() {
		e, err := core.NewEngineFor([]core.Pattern{pat})
		if err != nil {
			return err
		}
		t = time.Now()
		e.CheckUnitFactsContext(ctx, full.uf)
		d := time.Since(t)
		perPattern += d
		res.set("check."+string(pat)+"_s", d.Seconds())
	}
	var text bytes.Buffer
	t = time.Now()
	render.WriteText(&text, full.reports, full.summary)
	renderT := time.Since(t)
	t = time.Now()
	confirmed := core.ConfirmReports(full.reports, 0)
	confirmT := time.Since(t)
	wall := time.Since(start)
	heapMB, gcFrac := sampler.stop()

	// The pipeline steps the CLI also runs, against the CLI's own wall
	// below: the price of tracing plus running the phases one by one.
	traced := load + full.local + full.exchange + full.assemble + full.cold + renderT
	timed := traced + full.warm + perPattern + confirmT
	res.set("loader.load_s", load.Seconds())
	res.set("frontend.local_s", full.local.Seconds())
	res.set("frontend.tokens", float64(full.tokens))
	res.set("apidb.exchange_s", full.exchange.Seconds())
	res.set("apidb.apis", float64(full.apis))
	res.set("cpg.assemble_s", full.assemble.Seconds())
	res.set("cpg.functions", float64(full.fns))
	res.set("facts.compute_s", full.factsTime().Seconds())
	res.set("facts.computed", float64(full.computed))
	res.set("check.total_s", full.warm.Seconds())
	res.set("refsim.confirm_s", confirmT.Seconds())
	res.set("refsim.confirmed_ratio", ratio(float64(confirmed), float64(len(full.reports))))
	res.set("render.text_s", renderT.Seconds())
	res.set("go.heap_peak_mb", heapMB)
	res.set("go.gc_cpu_fraction", gcFrac)
	res.set("unattributed_s", (wall - timed).Seconds())
	res.set("unattributed_share", ratio((wall-timed).Seconds(), wall.Seconds()))
	nFull := float64(full.files)
	tFull := [5]time.Duration{full.local, full.exchange, full.assemble, full.factsTime(), full.warm}
	full = nil
	release()

	// The same tree through the CLI, untraced: a byte-for-byte check of
	// the phase-by-phase pipeline and the untraced wall for the overhead.
	cli, err := run(filepath.Join(b.bin, "refcheck"), tree)
	if err == nil && cli.stdout != text.String() {
		err = fmt.Errorf("phase-by-phase pipeline output differs from refcheck's")
	}
	if err == nil {
		err = checkText(truth, cli.stdout)
	}
	res.op(err)
	res.set("trace.overhead_ratio", ratio(traced.Seconds(), cli.wall.Seconds()))

	// A quarter of the files, dealt across every module, for the growth
	// exponent of each layer.
	quarter, err := runPass(ctx, core.Partition(loaded.Sources, 4)[0], loaded.Headers)
	if err != nil {
		return err
	}
	nQ := float64(quarter.files)
	tQ := [5]time.Duration{quarter.local, quarter.exchange, quarter.assemble, quarter.factsTime(), quarter.warm}
	quarter = nil
	for i, name := range []string{"frontend.slope", "apidb.slope", "cpg.slope", "facts.slope", "check.slope"} {
		res.set(name, slope(nQ, tQ[i].Seconds(), nFull, tFull[i].Seconds()))
	}
	release()

	// One process against the multi-process manager on the same tree.
	t = time.Now()
	one, err := core.Analyze(ctx, core.Request{Sources: loaded.Sources, Headers: loaded.Headers})
	res.set("core.analyze_s", time.Since(t).Seconds())
	if err == nil {
		err = checkReports(truth, one.Reports)
	}
	res.op(err)
	one = nil
	release()
	t = time.Now()
	two, err := manager.Run(ctx, manager.Config{Procs: 2, WorkerCmd: []string{filepath.Join(b.bin, "refcheck"), "-worker"}},
		loaded.Sources, loaded.Headers)
	res.set("manager.shards2_s", time.Since(t).Seconds())
	if err == nil {
		err = checkReports(truth, two.Reports)
	}
	res.op(err)
	release()
	return nil
}

// zeroCache and zeroServe fill in the per-layer metrics of layers a
// workload does not exercise: scan-s50 uses no cache and no server,
// edit-s6 no server.
func zeroCache(res *result) {
	for _, n := range []string{"cache.open_s", "cache.lookup_s", "cache.store_s", "cache.close_s",
		"cache.frontend_hit_ratio", "cache.unit_hit_ratio", "cache.facts_hit_ratio",
		"cache.disk_mb_per_edit", "cache.disk_mb", "cache.l1_bytes", "cache.l1_evict", "cache.singleflight_leaders"} {
		res.set(n, 0)
	}
}

func zeroServe(res *result) {
	for _, n := range []string{"serve.rejected", "serve.errors", "serve.unit_hit_ratio", "serve.transport_ms"} {
		res.set(n, 0)
	}
}

// release returns the previous step's garbage to the OS, so one step's
// heap neither inflates nor slows the next.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sampler tracks the Go heap's peak and the garbage collector's share of
// CPU time while a ledger runs, from runtime/metrics.
type sampler struct {
	quit, done chan struct{}
	peak       uint64
	gc0, cpu0  float64
}

var sampleNames = []string{"/memory/classes/heap/objects:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readSamples() (heap uint64, gc, cpu float64) {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.peak, s.gc0, s.cpu0 = readSamples()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if h, _, _ := readSamples(); h > s.peak {
					s.peak = h
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak heap in MB and the GC's share of
// the CPU time spent since the sampler started.
func (s *sampler) stop() (heapMB, gcFraction float64) {
	close(s.quit)
	<-s.done
	h, gc, cpu := readSamples()
	return float64(max(s.peak, h)) / (1 << 20), ratio(gc-s.gc0, cpu-s.cpu0)
}

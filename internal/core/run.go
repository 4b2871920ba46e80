package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// UnitSummary carries the unit-level counts tools print, decoupled from the
// Unit itself so a cache hit can report them without rebuilding the unit.
type UnitSummary struct {
	Files                int
	Functions            int
	DiscoveredStructs    int
	DiscoveredAPIs       int
	DiscoveredLoops      int
	DiscoveredDeviations int
}

// Request bundles one analysis run's inputs for Analyze.
type Request struct {
	// Sources are the translation units to analyze.
	Sources []cpg.Source
	// Headers maps include paths to content; nil skips unresolvable
	// includes.
	Headers map[string]string
	// Options carries the pipeline knobs (workers, cache, checker
	// selection, confirmation) unchanged from the historical entry points.
	Options Options
	// Trace, when non-nil, receives the run's observability data: phase
	// and per-unit spans plus the counter/histogram registry (see package
	// obs). obs.Nop() — or simply leaving it nil — disables observability
	// at effectively zero cost; reports are byte-identical either way.
	Trace *obs.Trace
}

// Run is the result of one analysis: the reports plus everything a CLI
// prints about the run. Unit is nil when the unit-level cache hit. Trace
// aliases the request's trace so callers holding only the Run can reach the
// metrics.
type Run struct {
	Unit    *cpg.Unit
	Reports []Report
	Summary UnitSummary
	Trace   *obs.Trace
}

// Metric returns a counter from the run's trace registry (0 when the run
// was untraced). It is the cache-visibility API that replaced the old
// CacheStats struct: cache.unit.hit, cache.write, cache.write.bytes,
// frontend.cache.hit, frontend.cache.miss, pipeline.files_skipped, and every other counter in
// the catalog (see internal/obs).
func (r *Run) Metric(name string) int64 {
	return r.Trace.Reg().Counter(name)
}

// unitEntry is the persisted whole-run result. Reports are stored before
// refsim confirmation (Confirmed is recomputed on load — it is a pure
// function of the witness, so this keeps one entry valid for both -confirm
// modes) and with witness CFG block pointers stripped (see
// stripWitnessBlocks).
type unitEntry struct {
	Summary UnitSummary
	Reports []Report
}

// corpusFP fingerprints the full sorted corpus content (sources and
// headers). Analysis has cross-file dependencies — API discovery, the
// inter-paired checker, and the facts layer read the whole unit — so the
// unit cache key must cover every file; per-file keys would be unsound.
// Each string is hashed as its little-endian 64-bit length and its bytes,
// copied through one fixed chunk buffer rather than converted to a []byte
// per file (sha256 has no WriteString).
func corpusFP(sources []cpg.Source, headers map[string]string) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 4<<10)
	add := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		w.Write(n[:])
		w.WriteString(s)
	}
	sorted := append([]cpg.Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, s := range sorted {
		add(s.Path)
		add(s.Content)
	}
	hpaths := make([]string, 0, len(headers))
	for p := range headers {
		hpaths = append(hpaths, p)
	}
	sort.Strings(hpaths)
	for _, p := range hpaths {
		add(p)
		add(headers[p])
	}
	w.Flush() // a hash never fails, so neither does its writer
	return hex.EncodeToString(h.Sum(nil))
}

// unitCacheKey fingerprints everything that can influence the report list:
// a format version, the caller's checker-config fingerprint, the engine's
// checker selection (so -checkers subset runs never collide with full
// runs), and the full corpus content.
func unitCacheKey(configFP, checkersFP, corpus string) string {
	return analysiscache.KeyOf("unit-v4", configFP, checkersFP, corpus)
}

// stripWitnessBlocks deep-copies reports with each witness event's CFG block
// pointer cleared. Blocks form cycles (Succs/Preds) that no flat encoding
// can represent — the report codec simply never writes them — and nothing
// downstream of finalize reads them: refsim replays on Op/Obj/API/Info,
// patch generation on Pos, so cached reports round-trip to the same
// rendered output. The facts layer already strips blocks from its
// normalized traces; this remains as a guard for checkers that attach events
// from elsewhere.
func stripWitnessBlocks(reports []Report) []Report {
	out := append([]Report(nil), reports...)
	for i := range out {
		if len(out[i].Witness) == 0 {
			continue
		}
		w := append([]semantics.Event(nil), out[i].Witness...)
		for j := range w {
			w[j].Block = nil
		}
		out[i].Witness = w
	}
	return out
}

// admit acquires a compute slot from the options' admission gate; with no
// gate configured it admits immediately with a no-op release.
func admit(ctx context.Context, opt Options) (func(), error) {
	if opt.Admit == nil {
		return func() {}, nil
	}
	return opt.Admit.Acquire(ctx)
}

func summarize(u *cpg.Unit) UnitSummary {
	return UnitSummary{
		Files:                len(u.Files),
		Functions:            len(u.Functions),
		DiscoveredStructs:    len(u.DiscoveredStructs),
		DiscoveredAPIs:       len(u.DiscoveredAPIs),
		DiscoveredLoops:      len(u.DiscoveredLoops),
		DiscoveredDeviations: len(u.DiscoveredDeviations),
	}
}

// lookupUnit consults the tiered cache for a decoded unit entry. The value
// may live in the cache's L1 and be shared with concurrent runs, so callers
// must copy before mutating (serveCached does).
func lookupUnit(cache *analysiscache.Cache, key string) (*unitEntry, bool) {
	v, ok := cache.GetValue(key, func(data []byte) (any, error) {
		ent := new(unitEntry)
		if err := decodeUnitEntry(data, ent); err != nil {
			return nil, err
		}
		return ent, nil
	})
	if !ok {
		return nil, false
	}
	return v.(*unitEntry), true
}

// serveCached fills run from a cached (or flight-shared) unit entry. The
// report slice is copied because confirmation writes Confirmed per report
// while the entry stays shared via L1; the witnesses underneath are
// replayed read-only, so they can stay shared.
func serveCached(run *Run, ent *unitEntry, req Request, reg *obs.Registry) {
	reg.Add("pipeline.files_skipped", int64(len(req.Sources)))
	run.Reports = append([]Report(nil), ent.Reports...)
	run.Summary = ent.Summary
	confirm(run, req.Options)
}

// runPhases is Analyze's computation on a miss: a non-retaining local pass
// over all sources, the exchange into opt.DB (a fresh DB when nil), and the
// global pass, all in this process. key names the unit entry the global
// pass stores (unused when uncached).
func runPhases(ctx context.Context, req Request, engine *Engine, key string, run *Run) (*unitEntry, error) {
	art, err := LocalPassInProcess(ctx, req, req.Sources)
	if err != nil {
		return nil, err
	}
	if req.Options.DB == nil {
		req.Options.DB = apidb.New()
	}
	xsp := req.Trace.Root().Child("phase:exchange")
	merged, disc := Exchange(req.Options.DB, []*cpg.ShardArtifact{art})
	xsp.Int("structs", len(disc.Structs)).Int("apis", len(disc.APIs)).Int("loops", len(disc.Loops)).End()
	return globalPass(ctx, req, engine, key, merged, disc, run)
}

// confirm runs the refsim confirmation phase over run's reports when
// opt.Confirm is set.
func confirm(run *Run, opt Options) {
	if opt.Confirm {
		sp := run.Trace.Root().Child("phase:confirm")
		ConfirmReportsSpan(run.Reports, opt.Workers, sp)
		sp.End()
	}
}

// Analyze is the pipeline entry point: it runs the phases of phases.go in
// this process — LocalPassInProcess over all sources, Exchange, then the
// global pass — and optionally confirms the reports, honoring ctx at every
// phase and work-queue boundary.
//
// With no cache in the options it runs the full pipeline. With a cache set
// it first consults the tiered unit-level report cache — the in-memory L1
// serves a decoded entry with no I/O at all, the disk tier decodes one pack
// payload — and an unchanged corpus skips the whole pipeline. On a miss the
// computation runs under single-flight: N concurrent Analyze calls for the
// same unit key on one cache perform one computation, the leader's stored
// entry is shared with the waiters (counted as cache.singleflight.wait, and
// served exactly like a cache hit: Unit stays nil). On a miss the local
// pass consults the per-file front-end cache so only changed files are
// re-preprocessed, and the global pass recomputes facts and checks, then
// stores the unit entry. A miss therefore writes one unit entry plus one
// front-end entry per re-preprocessed file (cache.write; cache.write.bytes
// counts their encoded size).
// Reports are byte-identical across {no cache, cold cache, warm cache,
// L1-warm, partial hit} at any worker count, with or without a trace
// attached.
//
// With Options.Admit set, every real pipeline computation — the uncached
// path and the single-flight leader — first acquires an admission slot;
// cache hits and flight waiters bypass the gate entirely. An Acquire error
// (overload, cancelled wait) aborts the run and is returned verbatim.
//
// An invalid checker selection returns an error wrapping ErrUnknownPattern.
// Cancellation drains the work queues cleanly and returns the partial Run
// alongside ctx.Err(); nothing partial is ever written to the cache, and a
// cancelled or failed single-flight leader never feeds its waiters — they
// retry leadership with their own ctx.
func Analyze(ctx context.Context, req Request) (*Run, error) {
	opt := req.Options
	engine, err := NewEngineFor(opt.Checkers)
	if err != nil {
		return nil, err
	}
	engine.Workers = opt.Workers

	tr := req.Trace
	root := tr.Root()
	reg := tr.Reg()
	cache := opt.Cache
	if cache != nil && reg != nil {
		cache = cache.WithRegistry(reg)
	}
	req.Options.Cache = cache

	run := &Run{Trace: tr}
	if cache == nil {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		release, err := admit(ctx, opt)
		if err != nil {
			return run, err
		}
		_, perr := runPhases(ctx, req, engine, "", run)
		release()
		if perr != nil {
			return run, perr
		}
		confirm(run, opt)
		return run, ctx.Err()
	}

	sp := root.Child("phase:cache-lookup")
	key := unitCacheKey(opt.ConfigFP, engine.patternsFP(), corpusFP(req.Sources, req.Headers))
	ent, hit := lookupUnit(cache, key)
	sp.End()
	if hit {
		reg.Add("cache.unit.hit", 1)
		serveCached(run, ent, req, reg)
		return run, ctx.Err()
	}
	reg.Add("cache.unit.miss", 1)
	if err := ctx.Err(); err != nil {
		return run, err
	}

	computed := false
	v, _, err := cache.Flight(ctx, key, func() (any, error) {
		// Second-chance lookup: a leader that finished between our miss and
		// this flight already populated L1 — serve that instead of leading
		// a redundant computation.
		if ent, ok := lookupUnit(cache, key); ok {
			return ent, nil
		}
		release, err := admit(ctx, opt)
		if err != nil {
			return nil, err
		}
		defer release()
		reg.Add("cache.singleflight.leader", 1)
		computed = true
		ent, err := runPhases(ctx, req, engine, key, run)
		if err != nil {
			return nil, err
		}
		return ent, nil
	})
	if err != nil {
		// Either our own (leader) pipeline was cancelled — run carries the
		// partial result — or our ctx died while waiting on another leader.
		return run, err
	}
	if !computed {
		reg.Add("cache.singleflight.wait", 1)
		serveCached(run, v.(*unitEntry), req, reg)
		return run, ctx.Err()
	}
	confirm(run, opt)
	return run, ctx.Err()
}

package core

import (
	"context"
	"sort"

	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/facts"
)

// The phase API: the pipeline split at its natural barrier.
//
// The pipeline's cross-file dependencies (API discovery, the inter-paired
// callback checker P6, the facts layer) all live *after* the per-file front
// end, so the split is: Partition the corpus, run a DB-independent LocalPass
// per shard in any process, Exchange the shards' discovery observations into
// one global apidb, then run the GlobalPass (assembly + facts + checkers +
// confirmation) against the merged view. Analyze is these same phases run in
// one process behind the unit cache, and internal/manager drives them across
// worker processes, so there is one pipeline and its output is
// byte-identical at any shard count.

// Partition splits sources into at most `shards` deterministic, disjoint,
// non-empty shards: sources are sorted by path and dealt round-robin, so the
// partition depends only on the corpus and the shard count, never on
// discovery order or process scheduling. Fewer sources than shards yields
// one shard per source; an empty corpus yields no shards.
func Partition(sources []cpg.Source, shards int) [][]cpg.Source {
	sorted := append([]cpg.Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	if shards < 1 {
		shards = 1
	}
	if shards > len(sorted) {
		shards = len(sorted)
	}
	if shards == 0 {
		return nil
	}
	out := make([][]cpg.Source, shards)
	for i, s := range sorted {
		out[i%shards] = append(out[i%shards], s)
	}
	return out
}

// LocalPass runs the shard-local half of the pipeline on one shard:
// preprocess, parse, and extract discovery observations, producing a
// serializable artifact. It is deliberately DB-independent — workers carry
// no discovery state, so they are stateless and interchangeable (any worker
// may process any shard, and a re-queued shard lands wherever). Only
// req.Headers, req.Options.Workers, req.Options.Cache and req.Trace are
// consulted; the cache serves per-file front-end entries (preprocessed
// token streams keyed by content), which is exactly the shard-local,
// DB-independent portion of the tiered cache. The artifact retains every
// file's token stream so a worker can encode it.
func LocalPass(ctx context.Context, req Request, shard []cpg.Source) (*cpg.ShardArtifact, error) {
	return localPass(ctx, req, shard, true)
}

// LocalPassInProcess is LocalPass for an artifact that is assembled in the
// same process and never encoded: it skips copying each file's token stream.
// Analyze and the manager's inline drain use it.
func LocalPassInProcess(ctx context.Context, req Request, shard []cpg.Source) (*cpg.ShardArtifact, error) {
	return localPass(ctx, req, shard, false)
}

func localPass(ctx context.Context, req Request, shard []cpg.Source, retain bool) (*cpg.ShardArtifact, error) {
	sp := req.Trace.Root().Child("phase:local")
	b := &cpg.Builder{Workers: req.Options.Workers, Cache: req.Options.Cache, Obs: sp}
	if req.Headers != nil {
		b.Headers = newHeaderProvider(req.Headers)
	}
	art := b.BuildArtifactContext(ctx, shard, retain)
	sp.End()
	return art, ctx.Err()
}

// Exchange is the barrier between the local and global halves: shard
// artifacts are merged back into global sorted path order and their
// discovery observations replayed into db, which afterward holds exactly the
// entries a single-process whole-corpus scan would have built (the replay is
// a pure function of the ordered observation sequence; see apidb.Apply). The
// returned artifact and discovery feed GlobalPass, whose Options.DB must be
// this same db. Its callers trace it as a phase:exchange span carrying the
// discovery counts: discovery is the pipeline's serial step.
func Exchange(db *apidb.DB, arts []*cpg.ShardArtifact) (*cpg.ShardArtifact, apidb.Discovery) {
	merged := cpg.MergeShardArtifacts(arts...)
	return merged, db.Apply(merged.Observations())
}

// GlobalPass runs everything after the exchange: assemble the merged
// artifact into a unit (reparsing files that crossed a process boundary),
// compute facts, run the checkers (including cross-file P6), and optionally
// confirm. req.Options.DB must be the DB that Exchange populated.
// req.Options.Cache is not consulted: Analyze, the cached entry point, runs
// this same pass with its cache keys.
func GlobalPass(ctx context.Context, req Request, merged *cpg.ShardArtifact, disc apidb.Discovery) (*Run, error) {
	engine, err := NewEngineFor(req.Options.Checkers)
	if err != nil {
		return nil, err
	}
	engine.Workers = req.Options.Workers
	req.Options.Cache = nil
	run := &Run{Trace: req.Trace}
	if _, err := globalPass(ctx, req, engine, "", merged, disc, run); err != nil {
		return run, err
	}
	confirm(run, req.Options)
	return run, ctx.Err()
}

// globalPass is GlobalPass without confirmation, which Analyze runs outside
// admission and after the store so cached entries stay
// confirmation-agnostic. It fills run in place, so a cancelled pass still
// leaves the partial Run visible. With req.Options.Cache set, once checking
// completes it stores the unit entry under key and returns it.
func globalPass(ctx context.Context, req Request, engine *Engine, key string, merged *cpg.ShardArtifact, disc apidb.Discovery, run *Run) (*unitEntry, error) {
	opt := req.Options
	root := req.Trace.Root()
	reg := req.Trace.Reg()

	bsp := root.Child("phase:assemble")
	b := &cpg.Builder{DB: opt.DB, Workers: opt.Workers, Obs: bsp}
	u := b.AssembleContext(ctx, merged, &disc)
	bsp.End()
	run.Unit = u
	run.Summary = summarize(u)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	uf := facts.NewUnit(u)
	csp := root.Child("phase:check")
	engine.Obs = csp
	run.Reports = engine.CheckUnitFactsContext(ctx, uf)
	csp.End()
	uf.Observe(reg)
	if err := ctx.Err(); err != nil {
		// A cancelled check may have skipped functions; the partial report
		// list must never be cached under the full corpus key.
		return nil, err
	}
	cache := opt.Cache
	if cache == nil {
		return nil, nil
	}

	ssp := root.Child("phase:cache-store")
	// Store before confirmation so the entry is confirmation-agnostic; a
	// write failure only costs the next run a recompute. PutValue lands the
	// decoded entry in L1 and queues the bytes for the disk tier's batch;
	// the explicit Flush makes this run's entries durable and visible to
	// other processes without waiting for thresholds.
	ent := &unitEntry{Summary: run.Summary, Reports: stripWitnessBlocks(run.Reports)}
	_ = cache.PutValue(key, ent, encodeUnitEntry(ent))
	_ = cache.Flush()
	ssp.End()
	return ent, nil
}

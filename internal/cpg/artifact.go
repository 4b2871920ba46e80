package cpg

import (
	"context"
	"sort"

	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// ArtFile is one translation unit's shard-local result: the expanded token
// stream, the macro table, preprocessor errors, and the file's discovery
// observation. It is the serializable projection of the front end — parse
// trees deliberately stay out (the same trade the front-end cache makes: the
// parser is cheap relative to preprocessing, and reparsing identical tokens
// yields an identical AST), so a decoded ArtFile is reparsed by Hydrate.
type ArtFile struct {
	Path   string
	Tokens []clex.Token
	Macros map[string]*cpp.Macro
	Obs    apidb.FileObs

	// file/errs are the in-memory fast path: a locally built artifact keeps
	// its AST and full error list (cpp + parse) so the single-process build
	// never reparses. After decode, file is nil and errs holds only the
	// reconstituted preprocessor errors; Hydrate reparses and appends the
	// parse errors, restoring the exact error order of a local build.
	file *cast.File
	errs []error
	// cppN is how many leading errs entries are preprocessor errors — the
	// serialization split point.
	cppN int
}

// ShardArtifact is the serializable output of a shard-local pass: the files
// of the shard in sorted path order.
type ShardArtifact struct {
	Files []*ArtFile

	// stats carries the arena counters of the front end (and of any
	// reparse) onto the assembled Unit, where the facts layer adds its CFG
	// slabs and publishes the arena.* gauges. It is not serialized.
	stats *arena.Stats
}

// Observations projects the artifact onto its per-file discovery
// observations, in file order — the input to apidb's exchange replay.
func (a *ShardArtifact) Observations() []apidb.FileObs {
	out := make([]apidb.FileObs, len(a.Files))
	for i, af := range a.Files {
		out[i] = af.Obs
	}
	return out
}

// MergeShardArtifacts concatenates shard outputs and restores global sorted
// path order, so the merged artifact is indistinguishable from one produced
// by a single whole-corpus local pass regardless of how sources were
// partitioned. The merge is stable, though shards produced by Partition
// never overlap in paths.
func MergeShardArtifacts(arts ...*ShardArtifact) *ShardArtifact {
	m := &ShardArtifact{stats: &arena.Stats{}}
	for _, a := range arts {
		if a != nil {
			m.Files = append(m.Files, a.Files...)
			m.stats.Add(a.stats)
		}
	}
	sort.SliceStable(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	return m
}

// BuildArtifactContext runs only the shard-local half of a build: the
// per-file front end plus discovery observation extraction. With retain set,
// each file's expanded token stream is copied into fresh storage so the
// artifact can outlive the build's pooled buffers and be serialized
// (EncodeShardArtifact requires it); without retain the artifact is only
// usable in-process, which skips a copy of every token stream.
//
// The builder's DB is not consulted: a shard-local pass is DB-independent by
// design, so stateless workers need no discovery state at all.
func (b *Builder) BuildArtifactContext(ctx context.Context, sources []Source, retain bool) *ShardArtifact {
	fe := b.newFrontEnd()
	fe.retain = retain
	return b.buildArtifact(ctx, fe, sources)
}

// Hydrate parses every wire-format file (af.file == nil) into its AST and
// releases the token stream, appending parse errors after the preprocessor
// errors. Calling it as each shard artifact arrives makes manager-side
// memory scale with per-shard AST size instead of whole-corpus retained
// token streams; AssembleContext runs the same pass, so a hydrated artifact
// leaves it nothing to reparse. Files that already carry an AST only have
// their token streams dropped. workers bounds the parse parallelism (0 =
// GOMAXPROCS); when anything needs parsing, a "reparse" span covers it
// under parent. Cancelling ctx leaves the unfed files without an AST.
func (a *ShardArtifact) Hydrate(ctx context.Context, workers int, parent *obs.Span) {
	if a.stats == nil {
		a.stats = &arena.Stats{}
	}
	var toParse []*ArtFile
	for _, af := range a.Files {
		if af.file == nil {
			toParse = append(toParse, af)
		} else {
			af.Tokens = nil
		}
	}
	if len(toParse) == 0 {
		return
	}
	sp := parent.Child("reparse").Int("files", len(toParse))
	workpool.Run(ctx, workers, len(toParse), func(i int) {
		af := toParse[i]
		file, perrs := cparse.ParseFileArena(af.Path, af.Tokens, a.stats)
		af.file = file
		af.errs = append(af.errs, perrs...)
		af.Tokens = nil
	})
	sp.End()
}

// Package cpg assembles whole-translation-unit code property graphs: the
// paper's "Graph Generation" stage (§6.1, built there with JOERN).
//
// A Unit combines, for a set of C sources, the ASTs, struct/global tables,
// the preprocessor macro table and the callback bindings the checkers
// query. Control-flow graphs and semantic event streams are not part of it:
// the facts layer (internal/facts) builds them per function when a checker
// first asks, and keeps only the facts derived from them. A Unit is built
// in two halves with the paper's "Lexer Parsing" stage between them:
// BuildArtifactContext runs the per-file front end and records each file's
// discovery observation, the caller replays the observations into the API
// knowledge base (apidb.Apply: refcounted structures, wrapper APIs,
// smartloops, deviations), and AssembleContext merges the files' ASTs and
// declarations under the extended DB.
package cpg

import (
	"context"
	"errors"
	"sort"
	"strings"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/apidb"
	"repro/internal/arena"
	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// Function is one function definition (or, when Def.Body is nil, a
// prototype) and the file that declares it.
type Function struct {
	Def  *cast.FuncDef
	File string
}

// CallbackBinding records a designated-initializer binding like
// `.probe = foo_probe` inside a driver-ops structure (P6 input).
type CallbackBinding struct {
	Pair    apidb.CallbackPair
	Var     *cast.VarDecl
	Acquire *Function // may be nil when the bound name is not defined here
	Release *Function
	File    string
}

// Unit is the code property graph of a source tree.
type Unit struct {
	DB        *apidb.DB
	Files     []*cast.File
	Functions map[string]*Function
	Structs   map[string]*cast.StructDecl
	Globals   map[string]*cast.VarDecl
	Macros    map[string]*cpp.Macro
	Errors    []error
	// Arena aggregates the build's allocator counters: the front end's AST
	// slabs and token pools, plus the CFG slabs the facts layer adds.
	Arena *arena.Stats

	// Discovered names from the lexer-parsing stage (reported by tools).
	DiscoveredStructs    []string
	DiscoveredAPIs       []string
	DiscoveredLoops      []string
	DiscoveredDeviations []string
}

// Source is one input file.
type Source struct {
	Path    string
	Content string
}

// Builder configures unit construction.
type Builder struct {
	// DB is the API knowledge base the unit carries to the facts layer,
	// which extracts events against it: the one the exchange replayed the
	// artifact's observations into. The front end never consults it. Nil
	// means a fresh apidb.New().
	DB *apidb.DB
	// Headers resolves #include; nil skips unresolvable includes. The
	// provider must be safe for concurrent reads (plain maps are: the
	// parallel front end only ever calls ReadFile).
	Headers cpp.FileProvider
	// Predefines are macros defined before each file (e.g. __KERNEL__).
	Predefines map[string]string
	// Workers bounds the file-sharded preprocess+parse concurrency (the
	// front end, and the reparse of decoded artifacts in assembly); 0 means
	// GOMAXPROCS, 1 forces sequential building. Results are byte-identical
	// either way — files are processed independently and merged in
	// deterministic order.
	Workers int
	// HeaderCache shares lexed header token lines across the unit's files
	// (and, if the caller reuses it, across builds); nil means a fresh
	// per-build cache, so headers are still lexed only once per front end.
	HeaderCache *cpp.HeaderCache
	// Cache, when non-nil, persists each file's preprocessed form
	// (tokens + macros + include closure) keyed by content hash, so an
	// unchanged file skips preprocessing on the next build. Parsing and
	// everything downstream still run — discovery and the checkers have
	// cross-file dependencies — which keeps cached and uncached builds
	// byte-identical by construction.
	Cache *analysiscache.Cache
	// Obs, when non-nil, is the parent span the build hangs its spans and
	// counters off: a child span per translation unit plus front-end
	// counters (frontend.cache.hit/miss, frontend.tokens,
	// frontend.macro_expansions, headercache.hit/miss, lex.tokens) and the
	// frontend.tu_ms histogram. Nil (or a span from obs.Nop()) disables all
	// of it at effectively zero cost; the Unit is byte-identical either way.
	Obs *obs.Span
}

// parsed is one file's front-end output, produced by any worker and merged on
// the coordinating goroutine in sorted path order.
type parsed struct {
	file   *cast.File
	macros map[string]*cpp.Macro
	errs   []error
	// cppN is how many leading errs entries came from the preprocessor; the
	// artifact codec serializes those as strings (parse errors regenerate on
	// reparse, so they are never serialized).
	cppN int
	// tokens is the retained expanded token stream in fresh storage, set
	// only when the front end runs in retain mode for artifact export. The
	// pooled per-TU buffer must never escape parseOne, so this is always a
	// copy.
	tokens []clex.Token
}

// frontEntry is the persisted per-file front-end result: everything the
// preprocessor produced for one source, plus the include closure that must
// still resolve identically for the entry to be reused. Parse trees are NOT
// cached — the parser is cheap relative to preprocessing, and reparsing from
// cached tokens sidesteps serializing the AST.
type frontEntry struct {
	Closure   []cpp.IncludeDep
	Tokens    []clex.Token
	Macros    map[string]*cpp.Macro
	CppErrors []string
}

// frontEnd is the per-build front-end state shared by all its workers.
type frontEnd struct {
	b        *Builder
	hc       *cpp.HeaderCache
	cache    *analysiscache.Cache
	predefFP string
	// retain makes parseOne copy each TU's expanded token stream into fresh
	// storage (parsed.tokens) so the artifact can be serialized after the
	// pooled buffers are released.
	retain bool

	// stats aggregates the build's arena counters (slab chunks in the
	// parser, pooled token buffers here; the facts layer later adds CFG
	// slabs); atomic, shared by all workers.
	stats *arena.Stats
	// tokPool recycles the per-TU expanded-token buffers across files of the
	// build. A buffer is borrowed in parseOne and returned when that TU's
	// arena releases — see the lifetime argument on parseOne.
	tokPool arena.Pool[clex.Token]

	// reg receives the front-end counters; nil-safe, so the uninstrumented
	// path pays only a nil check per event. Counter totals are deterministic
	// at any worker count for a given cache state: which worker processes a
	// file varies, but the set of files (and which of them hit) does not.
	reg      *obs.Registry
	lexStats clex.Stats
}

// predefFingerprint canonicalizes the predefine table for cache keys.
func predefFingerprint(predefs map[string]string) string {
	keys := make([]string, 0, len(predefs))
	for k := range predefs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(predefs[k])
		sb.WriteByte(0)
	}
	return sb.String()
}

// closureValid reports whether every include recorded when the entry was
// cached still resolves to byte-identical content (and every miss still
// misses). Preprocessing is deterministic, so identical inputs guarantee an
// identical result.
func (fe *frontEnd) closureValid(deps []cpp.IncludeDep) bool {
	for _, d := range deps {
		var content string
		ok := false
		if fe.b.Headers != nil {
			content, ok = fe.b.Headers.ReadFile(d.Path)
		}
		if d.Hash == "" {
			if ok {
				return false
			}
			continue
		}
		if !ok || fe.hc.HashOf(d.Path, content) != d.Hash {
			return false
		}
	}
	return true
}

// preprocess runs the preprocessor for one source, emitting expanded tokens
// into buf's backing array and recording the include closure when an on-disk
// cache will store the result.
func (fe *frontEnd) preprocess(src Source, buf []clex.Token) *cpp.Result {
	pp := cpp.New(fe.b.Headers).WithHeaderCache(fe.hc).WithOutBuffer(buf)
	if fe.reg != nil {
		pp.WithLexStats(&fe.lexStats)
	}
	if fe.cache != nil {
		pp.TrackIncludes()
	}
	for k, v := range fe.b.Predefines {
		pp.Define(k, v)
	}
	res := pp.Process(src.Path, src.Content)
	fe.reg.Add("frontend.tokens", int64(len(res.Tokens)))
	fe.reg.Add("frontend.macro_expansions", int64(res.Stats.Expansions))
	return res
}

// parseOne runs the per-file front end: preprocess (or reuse the cached
// preprocessed form) then parse. It touches no builder-mutable state, so
// shards may run concurrently.
//
// Each call owns one per-TU arena. The expanded-token stream (the largest
// per-TU scratch allocation) is borrowed from the build's pool and returned
// when the arena releases at the end of the call. That is safe because
// nothing retains the stream past the parse: the parser copies Token values
// into AST nodes, and macro bodies alias the shared header cache's lines or
// are copied out of the TU's own pooled lines, never the expanded stream. AST nodes
// themselves come from slabs inside the parser and are retained by the
// returned file — slab chunks are never recycled, so the release only
// touches the pooled buffer.
func (fe *frontEnd) parseOne(src Source) parsed {
	a := arena.New(fe.stats)
	buf := fe.tokPool.Get(len(src.Content)/6 + 8)
	a.OnRelease(func() { fe.tokPool.Put(buf) })
	defer a.Release()

	if fe.cache == nil {
		res := fe.preprocess(src, buf)
		buf = res.Tokens
		file, perrs := cparse.ParseFileArena(src.Path, res.Tokens, fe.stats)
		errs := make([]error, 0, len(res.Errors)+len(perrs))
		errs = append(errs, res.Errors...)
		errs = append(errs, perrs...)
		return parsed{file: file, macros: res.Macros, errs: errs,
			cppN: len(res.Errors), tokens: fe.retainToks(res.Tokens)}
	}
	key := analysiscache.KeyOf("fe-v3", fe.predefFP, src.Path, src.Content)
	// The decoded entry may land in the cache's L1 and be shared with every
	// later build, so it lives in fresh storage — never the pooled buffer —
	// and is treated as immutable from here. The pooled buf stays untouched
	// and returns to the pool unused.
	if v, ok := fe.cache.GetValue(key, decodeFrontValue); ok {
		ent := v.(*frontEntry)
		if fe.closureValid(ent.Closure) {
			fe.reg.Add("frontend.cache.hit", 1)
			file, perrs := cparse.ParseFileArena(src.Path, ent.Tokens, fe.stats)
			errs := make([]error, 0, len(ent.CppErrors)+len(perrs))
			for _, s := range ent.CppErrors {
				errs = append(errs, errors.New(s))
			}
			errs = append(errs, perrs...)
			return parsed{file: file, macros: ent.Macros, errs: errs,
				cppN: len(ent.CppErrors), tokens: fe.retainToks(ent.Tokens)}
		}
	}
	fe.reg.Add("frontend.cache.miss", 1)
	res := fe.preprocess(src, buf)
	buf = res.Tokens
	cppErrs := make([]string, len(res.Errors))
	for i, e := range res.Errors {
		cppErrs[i] = e.Error()
	}
	// A Put failure (full disk, unwritable dir) only costs the next run a
	// recompute; the current result is served from memory either way.
	_ = fe.cache.Put(key, encodeFrontEntry(&frontEntry{
		Closure: res.Includes, Tokens: res.Tokens,
		Macros: res.Macros, CppErrors: cppErrs,
	}))
	file, perrs := cparse.ParseFileArena(src.Path, res.Tokens, fe.stats)
	errs := make([]error, 0, len(res.Errors)+len(perrs))
	errs = append(errs, res.Errors...)
	errs = append(errs, perrs...)
	return parsed{file: file, macros: res.Macros, errs: errs,
		cppN: len(res.Errors), tokens: fe.retainToks(res.Tokens)}
}

// retainToks copies a token stream into fresh storage when the build runs in
// retain mode, and returns nil otherwise. The copy is never backed by the
// pooled per-TU buffer (which is recycled when the TU's arena releases) nor
// by an L1-shared cache entry (which must stay immutable), so the caller may
// keep and serialize it freely. The result is non-nil even for an empty
// stream, marking the file as export-ready.
func (fe *frontEnd) retainToks(toks []clex.Token) []clex.Token {
	if !fe.retain {
		return nil
	}
	out := make([]clex.Token, len(toks))
	copy(out, toks)
	return out
}

// parseTU runs the per-file front end under a "tu" span, feeding the per-TU
// wall time into the frontend.tu_ms histogram.
func (fe *frontEnd) parseTU(src Source) parsed {
	sp := fe.b.Obs.Child("tu").Str("path", src.Path)
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	p := fe.parseOne(src)
	if sp != nil {
		fe.reg.Observe("frontend.tu_ms", float64(time.Since(t0).Microseconds())/1e3)
	}
	sp.End()
	return p
}

// newFrontEnd resolves the builder's knobs into the per-build front-end
// state shared by the phase workers.
func (b *Builder) newFrontEnd() *frontEnd {
	hc := b.HeaderCache
	if hc == nil {
		hc = cpp.NewHeaderCache()
	}
	fe := &frontEnd{b: b, hc: hc, cache: b.Cache,
		predefFP: predefFingerprint(b.Predefines),
		reg:      b.Obs.Reg(), stats: &arena.Stats{}}
	fe.tokPool.Stats = fe.stats
	return fe
}

// buildArtifact is the front end: preprocess + parse, sharded per file
// (each file's front end is independent), with the file's discovery
// observation extracted in the same worker pass. The returned artifact lists
// files in sorted path order and carries the front end's arena stats into
// assembly; TUs skipped by cancellation are absent.
func (b *Builder) buildArtifact(ctx context.Context, fe *frontEnd, sources []Source) *ShardArtifact {
	sorted := append([]Source(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	// The header cache may be shared across builds, so charge this build the
	// delta of its counters, not their absolute values.
	hc0 := fe.hc.Stats()
	results := make([]*ArtFile, len(sorted))
	work := func(i int) {
		p := fe.parseTU(sorted[i])
		if p.file == nil {
			return
		}
		results[i] = &ArtFile{
			Path: sorted[i].Path, Tokens: p.tokens, Macros: p.macros,
			Obs:  apidb.ObserveFile(sorted[i].Path, p.file, p.macros),
			file: p.file, errs: p.errs, cppN: p.cppN,
		}
	}
	workpool.Run(ctx, fe.b.Workers, len(sorted), work)
	if fe.reg != nil {
		hc1 := fe.hc.Stats()
		fe.reg.Add("headercache.hit", hc1.Hits-hc0.Hits)
		fe.reg.Add("headercache.miss", hc1.Misses-hc0.Misses)
		fe.reg.Add("lex.tokens", (hc1.TokensLexed-hc0.TokensLexed)+fe.lexStats.Tokens.Load())
	}
	art := &ShardArtifact{stats: fe.stats}
	for _, af := range results {
		if af != nil {
			art.Files = append(art.Files, af)
		}
	}
	return art
}

// AssembleContext runs the global half of a build over a (possibly merged,
// possibly decoded) artifact: reparse wire-format files and drop every token
// stream (Hydrate), then merge files, declarations, macros and errors in
// sorted path order. disc is what the exchange added when it replayed the
// artifact's observations into b.DB (apidb.Apply), and b.DB must be that
// same DB: the unit carries it to the facts layer, which extracts events
// against it, and records disc's name lists.
//
// When ctx is cancelled mid-assembly the reparse queue drains cleanly and
// the returned Unit holds whatever completed: files whose reparse never ran
// are absent. Callers that care about partial results check ctx.Err().
func (b *Builder) AssembleContext(ctx context.Context, art *ShardArtifact, disc *apidb.Discovery) *Unit {
	db := b.DB
	if db == nil {
		db = apidb.New()
	}
	u := &Unit{
		DB:        db,
		Functions: map[string]*Function{},
		Structs:   map[string]*cast.StructDecl{},
		Globals:   map[string]*cast.VarDecl{},
		Macros:    map[string]*cpp.Macro{},

		DiscoveredStructs:    disc.Structs,
		DiscoveredAPIs:       disc.APIs,
		DiscoveredLoops:      disc.Loops,
		DiscoveredDeviations: disc.Deviations,
	}
	art.Hydrate(ctx, b.Workers, b.Obs)
	u.Arena = art.stats

	// Merge declarations, macros and errors in sorted path order — the exact
	// order the sequential loop used, so the unit is deterministic. A nil
	// file marks a TU whose reparse was skipped by cancellation.
	for _, af := range art.Files {
		if af.file == nil {
			continue
		}
		u.Errors = append(u.Errors, af.errs...)
		for name, m := range af.Macros {
			u.Macros[name] = m
		}
		u.Files = append(u.Files, af.file)
		for _, d := range af.file.Decls {
			switch x := d.(type) {
			case *cast.FuncDef:
				if x.Body != nil || u.Functions[x.Name] == nil {
					u.Functions[x.Name] = &Function{Def: x, File: af.Path}
				}
			case *cast.StructDecl:
				u.Structs[x.Name] = x
			case *cast.VarDecl:
				u.Globals[x.Name] = x
			}
		}
	}
	return u
}

// FunctionNames returns defined function names in sorted order.
func (u *Unit) FunctionNames() []string {
	names := make([]string, 0, len(u.Functions))
	for n := range u.Functions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefinedFunctions returns the functions that have bodies, in sorted name
// order — the unit of work for the facts layer and the checker engine.
// Prototypes are excluded.
func (u *Unit) DefinedFunctions() []*Function {
	var out []*Function
	for _, name := range u.FunctionNames() {
		if fn := u.Functions[name]; fn.Def.Body != nil {
			out = append(out, fn)
		}
	}
	return out
}

// CallbackBindings resolves driver-ops designated initializers against the
// DB's inter-paired callback table.
func (u *Unit) CallbackBindings() []CallbackBinding {
	var out []CallbackBinding
	var names []string
	for n := range u.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		vd := u.Globals[n]
		if len(vd.Inits) == 0 {
			continue
		}
		structName := vd.Type.StructName()
		for _, pair := range u.DB.Callbacks() {
			if pair.Struct != structName {
				continue
			}
			cb := CallbackBinding{Pair: pair, Var: vd, File: vd.Pos().File}
			for _, fi := range vd.Inits {
				id, ok := fi.Value.(*cast.Ident)
				if !ok {
					continue
				}
				switch fi.Field {
				case pair.Acquire:
					cb.Acquire = u.Functions[id.Name]
				case pair.Release:
					cb.Release = u.Functions[id.Name]
				}
			}
			if cb.Acquire != nil || cb.Release != nil {
				out = append(out, cb)
			}
		}
	}
	return out
}

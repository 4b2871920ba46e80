// Package cliopts is the single definition of the flag surface shared by the
// analysis binaries (refcheck, refcheckd, reproduce, refgen). Each binary
// registers the subset it supports via a Set mask, so -workers / -checkers /
// -cache / -cache-mem / -stats-json / -trace-out are defined once — same
// names, same help text, same semantics everywhere — and the mapping onto
// core.Options / core.Request lives in one place.
package cliopts

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/loader"
	"repro/internal/obs"
)

// Set selects which flag groups a binary registers.
type Set uint

const (
	// Demo registers -demo and -seed (the built-in synthetic corpus).
	Demo Set = 1 << iota
	// Scale registers -scale and -releases (workload sizing for refgen).
	Scale
	// Render registers -json and -pattern (report output shaping).
	Render
	// Workers registers -workers.
	Workers
	// Checkers registers -checkers.
	Checkers
	// Cache registers -cache and -cache-mem.
	Cache
	// Stats registers -stats-json and -trace-out.
	Stats
	// Verbose registers -v.
	Verbose

	// Analysis is the full single-binary analysis surface.
	Analysis = Demo | Render | Workers | Checkers | Cache | Stats | Verbose
)

// Opts holds every shared flag value; only the groups named in Register's
// mask are bound to flags (the rest keep their zero values / defaults).
type Opts struct {
	Demo     bool
	Seed     int64
	ScaleN   int
	Releases int

	JSON    bool
	Pattern string

	Workers   int
	Checkers  string
	CacheDir  string
	CacheMem  int
	StatsJSON string
	TraceOut  string
	Verbose   bool
}

// Register binds the selected flag groups onto fs with the canonical names,
// defaults, and help text.
func (o *Opts) Register(fs *flag.FlagSet, include Set) {
	if include&Demo != 0 {
		fs.BoolVar(&o.Demo, "demo", false, "check the built-in synthetic kernel corpus")
		fs.Int64Var(&o.Seed, "seed", 1, "corpus seed for -demo")
	}
	if include&Scale != 0 {
		fs.IntVar(&o.ScaleN, "scale", 1, "workload multiplier: emit N replicas of every plan module (1 = the historical corpus)")
		fs.IntVar(&o.Releases, "releases", 1, "number of release snapshots to generate (bug population evolves across them)")
	}
	if include&Render != 0 {
		fs.BoolVar(&o.JSON, "json", false, "emit reports as JSON")
		fs.StringVar(&o.Pattern, "pattern", "", "only report this anti-pattern (P1..P9)")
	}
	if include&Workers != 0 {
		fs.IntVar(&o.Workers, "workers", 0, "pipeline parallelism (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
	}
	if include&Checkers != 0 {
		fs.StringVar(&o.Checkers, "checkers", "", "comma-separated checker subset to run (e.g. P1,P4); default: all registered checkers")
	}
	if include&Cache != 0 {
		fs.StringVar(&o.CacheDir, "cache", "", "incremental analysis cache directory (reports are identical with or without it)")
		fs.IntVar(&o.CacheMem, "cache-mem", 64, "in-memory cache tier budget in MB for -cache (0 disables the memory tier)")
	}
	if include&Stats != 0 {
		fs.StringVar(&o.StatsJSON, "stats-json", "", "write the run's span/counter statistics as JSON to this file")
		fs.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto or chrome://tracing)")
	}
	if include&Verbose != 0 {
		fs.BoolVar(&o.Verbose, "v", false, "print elapsed wall time, throughput and run statistics to stderr")
	}
}

// Selected parses -checkers into the registered pattern subset.
func (o *Opts) Selected() ([]core.Pattern, error) {
	return core.ParsePatterns(o.Checkers)
}

// OpenCache opens the tiered cache per -cache / -cache-mem; it returns nil
// when caching is disabled. The caller owns the handle and must Close it
// after the run.
func (o *Opts) OpenCache() (*analysiscache.Cache, error) {
	if o.CacheDir == "" {
		return nil, nil
	}
	return analysiscache.Open(o.CacheDir, analysiscache.WithMemory(int64(o.CacheMem)<<20))
}

// ToOptions maps the flag values onto core.Options: parallelism, the checker
// subset, and a freshly opened cache handle (also returned so the caller can
// Close it).
func (o *Opts) ToOptions() (core.Options, *analysiscache.Cache, error) {
	selected, err := o.Selected()
	if err != nil {
		return core.Options{}, nil, err
	}
	cache, err := o.OpenCache()
	if err != nil {
		return core.Options{}, nil, err
	}
	return core.Options{Workers: o.Workers, Checkers: selected, Cache: cache}, cache, nil
}

// Sources materializes the analysis inputs: the -demo corpus at -seed (also
// when args is empty and demoDefault is set), or the named directories
// loaded recursively.
func (o *Opts) Sources(args []string, demoDefault bool) ([]cpg.Source, map[string]string, error) {
	if o.Demo || (demoDefault && len(args) == 0) {
		c := corpus.Generate(corpus.Spec{Seed: o.Seed, Scale: o.ScaleN})
		sources := make([]cpg.Source, 0, len(c.Files))
		for _, f := range c.Files {
			sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
		}
		headers := map[string]string{}
		for p, s := range c.Headers {
			headers[p] = s
		}
		return sources, headers, nil
	}
	if len(args) == 0 {
		return nil, nil, fmt.Errorf("no input: pass DIR arguments or -demo")
	}
	tree, err := loader.LoadDirs(args...)
	if err != nil {
		return nil, nil, err
	}
	return tree.Sources, tree.Headers, nil
}

// Trace returns a recording trace when some sink (-v, -stats-json,
// -trace-out) wants one, else the free no-op trace.
func (o *Opts) Trace(name string) *obs.Trace {
	if o.Verbose || o.StatsJSON != "" || o.TraceOut != "" {
		return obs.New(name)
	}
	return obs.Nop()
}

// ToRequest assembles a core.Request from the flag values: sources (demo or
// dirs), options, and a trace. The returned cache handle (nil without
// -cache) must be Closed by the caller after the run.
func (o *Opts) ToRequest(name string, args []string, demoDefault bool) (core.Request, *analysiscache.Cache, error) {
	sources, headers, err := o.Sources(args, demoDefault)
	if err != nil {
		return core.Request{}, nil, err
	}
	opt, cache, err := o.ToOptions()
	if err != nil {
		return core.Request{}, nil, err
	}
	return core.Request{
		Sources: sources, Headers: headers, Options: opt, Trace: o.Trace(name),
	}, cache, nil
}

// Export drains a finished trace to the configured sinks: a human phase +
// metric summary on stderr (-v), span/counter statistics as JSON
// (-stats-json), and a Chrome trace-event file (-trace-out). All three are
// no-ops on an obs.Nop() trace; sink I/O errors exit the process (prefixed
// with prog).
func (o *Opts) Export(prog string, tr *obs.Trace) {
	tr.Done()
	if o.Verbose {
		obs.WriteSummary(os.Stderr, tr)
	}
	writeTo := func(path, what string, write func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", prog, what, err)
			os.Exit(1)
		}
	}
	writeTo(o.StatsJSON, "stats-json", func(f *os.File) error { return obs.WriteStatsJSON(f, tr) })
	writeTo(o.TraceOut, "trace-out", func(f *os.File) error { return obs.WriteChromeTrace(f, tr) })
}

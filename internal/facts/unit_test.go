package facts_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apidb"
	"repro/internal/cpg"
	"repro/internal/cpp"
	"repro/internal/facts"
	"repro/internal/obs"
	"repro/internal/semantics"
)

// assemble runs the front end, the discovery replay and assembly the way
// core.Analyze does, with headers resolved through provider (nil skips
// includes).
func assemble(t *testing.T, workers int, provider cpp.FileProvider, sources ...cpg.Source) *cpg.Unit {
	t.Helper()
	ctx := context.Background()
	b := &cpg.Builder{DB: apidb.New(), Headers: provider, Workers: workers}
	art := b.BuildArtifactContext(ctx, sources, false)
	disc := b.DB.Apply(art.Observations())
	u := b.AssembleContext(ctx, art, &disc)
	for _, e := range u.Errors {
		t.Fatalf("build error: %v", e)
	}
	return u
}

// findEvent returns the first event of fn's whole-function view matching
// op and api.
func findEvent(ff *facts.FunctionFacts, op semantics.OpKind, api string) *semantics.Event {
	for i, ev := range ff.All() {
		if ev.Op == op && ev.API == api {
			return &ff.All()[i]
		}
	}
	return nil
}

// TestDefinedFunctionsHaveFacts is the facts-level half of cpg's
// TestUnitBasics: every defined function yields non-empty facts, built from
// a CFG and event stream the unit itself no longer holds, and a call
// between two functions of the unit shows up in the caller's events.
func TestDefinedFunctionsHaveFacts(t *testing.T) {
	u := assemble(t, 1, nil, cpg.Source{Path: "drivers/foo/a.c", Content: `
struct foo_dev { struct kref ref; int id; };
static void helper(struct foo_dev *d) { kref_get(&d->ref); }
int foo_probe(struct foo_dev *d)
{
	helper(d);
	return 0;
}
`})
	uf := facts.NewUnit(u)
	if got := uf.FunctionNames(); !reflect.DeepEqual(got, []string{"foo_probe", "helper"}) {
		t.Fatalf("FunctionNames = %v", got)
	}
	for _, name := range uf.FunctionNames() {
		ff := uf.Function(name)
		if ff == nil || ff.Data == nil || len(ff.Traces()) == 0 || len(ff.All()) == 0 {
			t.Fatalf("%s: empty facts %+v", name, ff)
		}
	}
	if findEvent(uf.Function("helper"), semantics.OpInc, "kref_get") == nil {
		t.Errorf("helper: no kref_get increment in %v", uf.Function("helper").All())
	}
	found := false
	for _, ev := range uf.Function("foo_probe").All() {
		found = found || ev.API == "helper"
	}
	if !found {
		t.Errorf("foo_probe: call to helper missing from %v", uf.Function("foo_probe").All())
	}
}

// TestDiscoveredAPIInFacts pins that events are extracted against the DB
// the exchange extended: a wrapper discovered in the same unit classifies
// as an increment in its caller.
func TestDiscoveredAPIInFacts(t *testing.T) {
	u := assemble(t, 1, nil, cpg.Source{Path: "a.c", Content: `
struct foo_dev { struct kref ref; };
void foo_get(struct foo_dev *d) { kref_get(&d->ref); }
void foo_put(struct foo_dev *d) { kref_put(&d->ref); }
void user(struct foo_dev *d)
{
	foo_get(d);
	foo_put(d);
}
`})
	ff := facts.NewUnit(u).Function("user")
	if findEvent(ff, semantics.OpInc, "foo_get") == nil {
		t.Errorf("discovered API not reflected in events: %v", ff.All())
	}
	if findEvent(ff, semantics.OpDec, "foo_put") == nil {
		t.Errorf("discovered put not reflected in events: %v", ff.All())
	}
}

// TestHeadersResolvedFacts is the facts-level half of cpg's
// TestHeadersResolved: a function whose loop comes from a header macro is
// analyzed, and its events carry the macro origin.
func TestHeadersResolvedFacts(t *testing.T) {
	headers := cpp.NewIndexedFiles(map[string]string{
		"include/linux/of.h": `
#define for_each_child_of_node(parent, child) \
	for (child = of_get_next_child(parent, 0); child; \
	     child = of_get_next_child(parent, child))
`,
	})
	u := assemble(t, 1, headers, cpg.Source{Path: "drivers/x.c", Content: `
#include <linux/of.h>
int walk(struct device_node *parent)
{
	struct device_node *child;
	for_each_child_of_node(parent, child) {
		use(child);
	}
	return 0;
}
`})
	ff := facts.NewUnit(u).Function("walk")
	if ff == nil || len(ff.Traces()) == 0 {
		t.Fatal("walk not analyzed")
	}
	fromMacro := false
	for _, ev := range ff.All() {
		fromMacro = fromMacro || ev.FromMacro == "for_each_child_of_node"
	}
	if !fromMacro {
		t.Errorf("walk: no event attributed to the header macro in %v", ff.All())
	}
}

var parallelSources = []cpg.Source{
	{Path: "a.c", Content: `
struct a_dev { struct kref ref; };
void a_get(struct a_dev *d) { kref_get(&d->ref); }
void a_put(struct a_dev *d) { kref_put(&d->ref); }
int a_user(struct a_dev *d) { a_get(d); a_put(d); return 0; }
`},
	{Path: "b.c", Content: `
int b_probe(void)
{
	struct device_node *np = of_find_node_by_path("/b");
	if (!np)
		return -ENODEV;
	of_node_put(np);
	return 0;
}
`},
	{Path: "c.c", Content: fixtureSrc},
}

// computeAll computes every function's facts on workers goroutines, the way
// the engine's function queue does, and returns them by name.
func computeAll(uf *facts.UnitFacts, workers int) map[string]*facts.Data {
	names := uf.FunctionNames()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				uf.Function(names[i])
			}
		}()
	}
	wg.Wait()
	out := make(map[string]*facts.Data, len(names))
	for _, n := range names {
		out[n] = uf.Function(n).Data
	}
	return out
}

// TestParallelFactsMatchSequential is the facts-level half of cpg's
// TestParallelMatchesSequential: units built and analyzed with one worker
// and with many yield identical Data for every defined function.
func TestParallelFactsMatchSequential(t *testing.T) {
	seq := computeAll(facts.NewUnit(assemble(t, 1, nil, parallelSources...)), 1)
	if len(seq) < 6 {
		t.Fatalf("only %d functions analyzed", len(seq))
	}
	for _, workers := range []int{2, 8} {
		par := computeAll(facts.NewUnit(assemble(t, workers, nil, parallelSources...)), workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d functions, want %d", workers, len(par), len(seq))
		}
		for name, d := range seq {
			if !reflect.DeepEqual(d, par[name]) {
				t.Errorf("workers=%d: %s: facts differ from the sequential build", workers, name)
			}
		}
	}
}

// TestShardedFactsMatchBuild is the facts-level half of cpg's
// TestShardedAssembleMatchesBuild: artifacts that crossed the wire and were
// reparsed yield the same facts as the in-process build.
func TestShardedFactsMatchBuild(t *testing.T) {
	ctx := context.Background()
	want := computeAll(facts.NewUnit(assemble(t, 1, nil, parallelSources...)), 1)
	for shards := 1; shards <= 3; shards++ {
		var arts []*cpg.ShardArtifact
		for s := 0; s < shards; s++ {
			var part []cpg.Source
			for i := s; i < len(parallelSources); i += shards {
				part = append(part, parallelSources[i])
			}
			art := (&cpg.Builder{Workers: 1}).BuildArtifactContext(ctx, part, true)
			dec, err := cpg.DecodeShardArtifact(cpg.EncodeShardArtifact(art))
			if err != nil {
				t.Fatalf("shards=%d: wire round trip: %v", shards, err)
			}
			arts = append(arts, dec)
		}
		merged := cpg.MergeShardArtifacts(arts...)
		db := apidb.New()
		disc := db.Apply(merged.Observations())
		u := (&cpg.Builder{DB: db, Workers: 1}).AssembleContext(ctx, merged, &disc)
		got := computeAll(facts.NewUnit(u), 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: facts differ from the single-process build", shards)
		}
	}
}

// TestObserveArenaGauges pins that the arena.* gauges cover the CFG slabs
// the facts layer builds on top of the front end's allocations.
func TestObserveArenaGauges(t *testing.T) {
	u := assemble(t, 1, nil, parallelSources...)
	front := u.Arena.Bytes.Load()
	uf := facts.NewUnit(u)
	computeAll(uf, 1)
	reg := obs.New("facts-test").Reg()
	uf.Observe(reg)
	if got := reg.Gauge("arena.bytes"); got <= float64(front) {
		t.Errorf("arena.bytes = %.0f, want more than the front end's %d", got, front)
	}
	if got, want := reg.Counter("facts.computed"), int64(len(uf.FunctionNames())); got != want {
		t.Errorf("facts.computed = %d, want %d", got, want)
	}
}

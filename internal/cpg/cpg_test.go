package cpg

import (
	"context"
	"testing"

	"repro/internal/apidb"
	"repro/internal/cpp"
)

// assemble runs both halves of a build in one process the way core.Analyze
// does: the front end without token retention, the discovery replay into
// b.DB (a fresh DB when nil), then assembly.
func assemble(b Builder, sources ...Source) *Unit {
	ctx := context.Background()
	if b.DB == nil {
		b.DB = apidb.New()
	}
	art := b.BuildArtifactContext(ctx, sources, false)
	disc := b.DB.Apply(art.Observations())
	return b.AssembleContext(ctx, art, &disc)
}

func build(t *testing.T, sources ...Source) *Unit {
	t.Helper()
	u := assemble(Builder{}, sources...)
	for _, e := range u.Errors {
		t.Fatalf("build error: %v", e)
	}
	return u
}

func TestUnitBasics(t *testing.T) {
	u := build(t,
		Source{Path: "drivers/foo/a.c", Content: `
struct foo_dev { struct kref ref; int id; };
static void helper(struct foo_dev *d) { kref_get(&d->ref); }
int foo_probe(struct foo_dev *d)
{
	helper(d);
	return 0;
}
`})
	if len(u.Files) != 1 {
		t.Fatalf("files = %d", len(u.Files))
	}
	if u.Functions["foo_probe"] == nil || u.Functions["helper"] == nil {
		t.Fatalf("functions = %v", u.FunctionNames())
	}
	if u.Structs["foo_dev"] == nil {
		t.Error("struct table missing foo_dev")
	}
	if fn := u.Functions["foo_probe"]; fn.File != "drivers/foo/a.c" || fn.Def.Body == nil {
		t.Errorf("foo_probe = %+v, want a definition from drivers/foo/a.c", fn)
	}
	if got := len(u.DefinedFunctions()); got != 2 {
		t.Errorf("DefinedFunctions = %d, want 2", got)
	}
	if u.Arena == nil || u.Arena.Chunks.Load() == 0 {
		t.Error("unit does not carry the front end's arena stats")
	}
}

func TestDiscoveryRuns(t *testing.T) {
	u := build(t, Source{Path: "a.c", Content: `
struct foo_dev { struct kref ref; };
void foo_get(struct foo_dev *d) { kref_get(&d->ref); }
void foo_put(struct foo_dev *d) { kref_put(&d->ref); }
void user(struct foo_dev *d)
{
	foo_get(d);
	foo_put(d);
}
`})
	if len(u.DiscoveredStructs) != 1 || u.DiscoveredStructs[0] != "foo_dev" {
		t.Errorf("discovered structs = %v", u.DiscoveredStructs)
	}
	if len(u.DiscoveredAPIs) != 2 {
		t.Errorf("discovered APIs = %v", u.DiscoveredAPIs)
	}
	// The unit carries the extended DB to the facts layer, which classifies
	// foo_get as Inc in `user` (pinned by facts' TestDiscoveredAPIInFacts).
	if a := u.DB.Lookup("foo_get"); a == nil || a.Op != apidb.OpInc {
		t.Errorf("unit DB entry for foo_get = %+v, want an Inc API", a)
	}
}

func TestHeadersResolved(t *testing.T) {
	headers := cpp.NewIndexedFiles(map[string]string{
		"include/linux/of.h": `
#define for_each_child_of_node(parent, child) \
	for (child = of_get_next_child(parent, 0); child; \
	     child = of_get_next_child(parent, child))
`,
	})
	u := assemble(Builder{Headers: headers}, Source{Path: "drivers/x.c", Content: `
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
	for _, e := range u.Errors {
		t.Fatalf("err: %v", e)
	}
	if u.Macros["for_each_child_of_node"] == nil {
		t.Error("macro from header missing")
	}
	if fn := u.Functions["walk"]; fn == nil || fn.Def.Body == nil {
		t.Error("walk not defined")
	}
}

func TestCallbackBindings(t *testing.T) {
	u := build(t, Source{Path: "drivers/d.c", Content: `
struct platform_driver { int (*probe)(void); int (*remove)(void); };
static int d_probe(void) { return 0; }
static int d_remove(void) { return 0; }
static struct platform_driver d_driver = {
	.probe = d_probe,
	.remove = d_remove,
};
`})
	cbs := u.CallbackBindings()
	if len(cbs) != 1 {
		t.Fatalf("bindings = %+v", cbs)
	}
	cb := cbs[0]
	if cb.Acquire == nil || cb.Acquire.Def.Name != "d_probe" {
		t.Errorf("acquire = %+v", cb.Acquire)
	}
	if cb.Release == nil || cb.Release.Def.Name != "d_remove" {
		t.Errorf("release = %+v", cb.Release)
	}
	if cb.Pair.Struct != "platform_driver" {
		t.Errorf("pair = %+v", cb.Pair)
	}
}

func TestCallbackBindingMissingRelease(t *testing.T) {
	u := build(t, Source{Path: "drivers/d.c", Content: `
struct usb_driver { int (*probe)(void); int (*disconnect)(void); };
static int u_probe(void) { return 0; }
static struct usb_driver u_driver = {
	.probe = u_probe,
};
`})
	cbs := u.CallbackBindings()
	if len(cbs) != 1 {
		t.Fatalf("bindings = %+v", cbs)
	}
	if cbs[0].Acquire == nil || cbs[0].Release != nil {
		t.Errorf("binding = %+v", cbs[0])
	}
}

func TestDeterministicOrder(t *testing.T) {
	srcs := []Source{
		{Path: "b.c", Content: "int fb(void) { return 2; }"},
		{Path: "a.c", Content: "int fa(void) { return 1; }"},
	}
	u1 := build(t, srcs...)
	u2 := build(t, srcs[1], srcs[0])
	if u1.Files[0].Name != "a.c" || u2.Files[0].Name != "a.c" {
		t.Error("files not sorted by path")
	}
	n1, n2 := u1.FunctionNames(), u2.FunctionNames()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("order differs: %v vs %v", n1, n2)
		}
	}
}

func TestParseErrorsSurfaced(t *testing.T) {
	u := assemble(Builder{}, Source{Path: "bad.c", Content: "@@@;\nint ok(void) { return 0; }"})
	if len(u.Errors) == 0 {
		t.Error("expected surfaced errors")
	}
	if u.Functions["ok"] == nil {
		t.Error("recovery failed")
	}
}

// TestParallelMatchesSequential builds the same sources with one worker and
// with many; every unit table must agree.
func TestParallelMatchesSequential(t *testing.T) {
	srcs := []Source{
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
	}
	seq := assemble(Builder{Workers: 1}, srcs...)
	par := assemble(Builder{Workers: 8}, srcs...)
	if len(seq.Functions) != len(par.Functions) {
		t.Fatalf("function counts differ")
	}
	// CFG and event equality across worker counts is pinned at the facts
	// level (facts' TestParallelFactsMatchSequential).
	for name, sf := range seq.Functions {
		pf := par.Functions[name]
		if pf == nil || sf.File != pf.File || (sf.Def.Body == nil) != (pf.Def.Body == nil) {
			t.Errorf("%s: function differs between worker counts", name)
		}
	}
	// Phase 1 is sharded too: merged declarations, macros, and errors must
	// agree between the sequential and parallel front ends.
	if len(seq.Files) != len(par.Files) {
		t.Errorf("file counts differ (%d vs %d)", len(seq.Files), len(par.Files))
	}
	for i := range seq.Files {
		if seq.Files[i].Name != par.Files[i].Name {
			t.Errorf("file %d: %s vs %s", i, seq.Files[i].Name, par.Files[i].Name)
		}
	}
	if len(seq.Macros) != len(par.Macros) {
		t.Errorf("macro counts differ (%d vs %d)", len(seq.Macros), len(par.Macros))
	}
	for name := range seq.Macros {
		if par.Macros[name] == nil {
			t.Errorf("macro %s missing from parallel build", name)
		}
	}
	if len(seq.Structs) != len(par.Structs) || len(seq.Globals) != len(par.Globals) {
		t.Errorf("declaration tables differ")
	}
	if len(seq.Errors) != len(par.Errors) {
		t.Errorf("error counts differ (%d vs %d)", len(seq.Errors), len(par.Errors))
	}
	for i := range seq.Errors {
		if seq.Errors[i].Error() != par.Errors[i].Error() {
			t.Errorf("error %d differs: %v vs %v", i, seq.Errors[i], par.Errors[i])
		}
	}
}

// TestParallelErrorOrderDeterministic shards files with parse errors across
// many workers and checks the merged error list keeps sorted-path order.
func TestParallelErrorOrderDeterministic(t *testing.T) {
	srcs := []Source{
		{Path: "z.c", Content: "@@@;\nint fz(void) { return 0; }"},
		{Path: "a.c", Content: "###;\nint fa(void) { return 0; }"},
		{Path: "m.c", Content: "int fm(void) { return 0; }"},
	}
	want := assemble(Builder{Workers: 1}, srcs...)
	if len(want.Errors) == 0 {
		t.Fatal("expected parse errors")
	}
	for i := 0; i < 10; i++ {
		got := assemble(Builder{Workers: 8}, srcs...)
		if len(got.Errors) != len(want.Errors) {
			t.Fatalf("error counts differ (%d vs %d)", len(got.Errors), len(want.Errors))
		}
		for j := range want.Errors {
			if got.Errors[j].Error() != want.Errors[j].Error() {
				t.Fatalf("error %d differs: %v vs %v", j, got.Errors[j], want.Errors[j])
			}
		}
	}
}

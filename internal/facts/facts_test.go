package facts_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/facts"
)

// fixture has a hidden-get leak, a paired-error-path function, and a
// refcount-free function, so traces exercise conditions, error blocks, and
// the empty case.
const fixtureSrc = `
static int f_leak(void)
{
	struct device_node *np = of_find_node_by_path("/soc");
	if (!np)
		return -ENODEV;
	use_node(np);
	return 0;
}

static int f_err(struct device_node *np)
{
	int err;
	of_node_get(np);
	err = register_thing(np);
	if (err)
		goto fail;
	of_node_put(np);
	return 0;
fail:
	return err;
}

static void f_plain(int x)
{
	use(x);
}
`

func buildFixture(t *testing.T) *cpg.Unit {
	t.Helper()
	run, err := core.Analyze(context.Background(), core.Request{
		Sources: []cpg.Source{{Path: "drivers/x/fixture.c", Content: fixtureSrc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Unit
}

// TestMemoizedExactlyOnce hammers every function slot from many goroutines
// and asserts each function's facts were computed exactly once and every
// caller saw the same value. Run with -race this is the engine's
// exactly-once guarantee at any worker count.
func TestMemoizedExactlyOnce(t *testing.T) {
	uf := facts.NewUnit(buildFixture(t))
	names := uf.FunctionNames()
	if len(names) != 3 {
		t.Fatalf("FunctionNames = %v, want 3 defined functions", names)
	}
	first := make([]*facts.FunctionFacts, len(names))
	for i, n := range names {
		first[i] = uf.Function(n)
		if first[i] == nil {
			t.Fatalf("Function(%q) = nil", n)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range names {
				if ff := uf.Function(n); ff != first[i] {
					t.Errorf("Function(%q) returned a different value concurrently", n)
				}
			}
		}()
	}
	wg.Wait()
	if got := uf.Computes(); got != int64(len(names)) {
		t.Fatalf("Computes = %d, want exactly %d (one per defined function)", got, len(names))
	}
	if uf.Function("no_such_function") != nil {
		t.Fatal("unknown function should yield nil facts")
	}
}

// TestTraceSchema checks the structural invariants every checker relies on:
// parallel slices, stripped CFG blocks, monotone block positions, and the
// ErrFrom suffix property.
func TestTraceSchema(t *testing.T) {
	uf := facts.NewUnit(buildFixture(t))
	sawError := false
	for _, name := range uf.FunctionNames() {
		ff := uf.Function(name)
		for ti, tr := range ff.Traces() {
			if len(tr.Events) != len(tr.BlockAt) || len(tr.Events) != len(tr.Branch) {
				t.Fatalf("%s trace %d: slice lengths diverge (%d events, %d blockAt, %d branch)",
					name, ti, len(tr.Events), len(tr.BlockAt), len(tr.Branch))
			}
			for i, ev := range tr.Events {
				if ev.Block != nil {
					t.Fatalf("%s trace %d event %d: CFG block not stripped", name, ti, i)
				}
				if i > 0 && tr.BlockAt[i] < tr.BlockAt[i-1] {
					t.Fatalf("%s trace %d: BlockAt not monotone at %d", name, ti, i)
				}
				// ErrorAtOrAfter true whenever ErrorAfter is: the inclusive
				// query can only add the event's own block.
				if tr.ErrorAfter(i) && !tr.ErrorAtOrAfter(i) {
					t.Fatalf("%s trace %d event %d: ErrorAfter without ErrorAtOrAfter", name, ti, i)
				}
			}
			if n := len(tr.ErrFrom); n > 0 && tr.ErrFrom[n-1] {
				t.Fatalf("%s trace %d: ErrFrom sentinel must be false", name, ti)
			}
			for k := 0; k+1 < len(tr.ErrFrom); k++ {
				if tr.ErrFrom[k+1] && !tr.ErrFrom[k] {
					t.Fatalf("%s trace %d: ErrFrom not a suffix-or at %d", name, ti, k)
				}
				sawError = sawError || tr.ErrFrom[k]
			}
		}
		for _, ev := range ff.All() {
			if ev.Block != nil {
				t.Fatalf("%s: All() event carries a CFG block", name)
			}
		}
	}
	if !sawError {
		t.Fatal("fixture should produce at least one path through an error block")
	}
}

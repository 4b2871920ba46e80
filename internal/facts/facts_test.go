package facts_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/difftest"
	"repro/internal/facts"
	"repro/internal/semantics"
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
// parallel slices, in-range event indexes, stripped CFG blocks, monotone
// block positions, and the ErrFrom suffix property.
func TestTraceSchema(t *testing.T) {
	uf := facts.NewUnit(buildFixture(t))
	sawError := false
	for _, name := range uf.FunctionNames() {
		ff := uf.Function(name)
		for ti, tr := range ff.Traces() {
			if len(tr.Idx) != len(tr.BlockAt) || len(tr.Idx) != len(tr.Branch) {
				t.Fatalf("%s trace %d: slice lengths diverge (%d events, %d blockAt, %d branch)",
					name, ti, len(tr.Idx), len(tr.BlockAt), len(tr.Branch))
			}
			for i, k := range tr.Idx {
				if k < 0 || int(k) >= len(ff.All()) {
					t.Fatalf("%s trace %d event %d: index %d outside All (%d events)", name, ti, i, k, len(ff.All()))
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

// TestTracesMatchReferenceFlattening checks the index-view traces against
// an independent flattening over every function of the golden corpus: for
// each cfg.Paths path, the events of each block in path order (blocks
// stripped), the branch the path takes out of each block, and the
// error-block suffix. Each Trace.Idx must resolve through Data.All to
// exactly that sequence, and All must be the extractor's events in block
// order.
func TestTracesMatchReferenceFlattening(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: difftest.GoldenSeed})
	ss := difftest.FromCorpus(c)
	run, err := core.Analyze(context.Background(), core.Request{Sources: ss.Sources, Headers: ss.Headers})
	if err != nil {
		t.Fatal(err)
	}
	u := run.Unit
	uf := facts.NewUnit(u)
	globals := map[string]bool{}
	for name := range u.Globals {
		globals[name] = true
	}
	ext := &semantics.Extractor{DB: u.DB, GlobalNames: globals}
	sameEvents := func(got, want []semantics.Event) bool {
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	traces, events := 0, 0
	for _, name := range uf.FunctionNames() {
		d := uf.Function(name).Data
		g := cfg.BuildArena(u.Functions[name].Def, nil)
		fe := ext.Extract(g)
		var wantAll []semantics.Event
		for _, b := range g.Blocks {
			for _, ev := range fe.Of(b) {
				ev.Block = nil
				wantAll = append(wantAll, ev)
			}
		}
		if !sameEvents(d.All, wantAll) {
			t.Fatalf("%s: All differs from the extractor's block-order events", name)
		}
		paths := g.Paths(0)
		if len(d.Traces) != len(paths) {
			t.Fatalf("%s: %d traces for %d paths", name, len(d.Traces), len(paths))
		}
		for ti, p := range paths {
			tr := &d.Traces[ti]
			var (
				want   []semantics.Event
				wantAt []int32
				wantBr []int8
			)
			for bi, b := range p {
				br := facts.TookUnknown
				if bi+1 < len(p) && len(b.Succs) > 0 {
					br = facts.TookFalse
					if p[bi+1] == b.Succs[0] {
						br = facts.TookTrue
					}
				}
				for _, ev := range fe.Of(b) {
					ev.Block = nil
					want = append(want, ev)
					wantAt = append(wantAt, int32(bi))
					wantBr = append(wantBr, br)
				}
			}
			wantErr := make([]bool, len(p)+1)
			for k := len(p) - 1; k >= 0; k-- {
				wantErr[k] = wantErr[k+1] || p[k].IsError
			}
			if !sameEvents(d.Events(tr), want) {
				t.Fatalf("%s trace %d: Idx resolves to %s, want %s", name, ti,
					semantics.EventsString(d.Events(tr)), semantics.EventsString(want))
			}
			if !reflect.DeepEqual(append([]int32{}, tr.BlockAt...), append([]int32{}, wantAt...)) ||
				!reflect.DeepEqual(append([]int8{}, tr.Branch...), append([]int8{}, wantBr...)) ||
				!reflect.DeepEqual(tr.ErrFrom, wantErr) {
				t.Fatalf("%s trace %d: positions, branches or ErrFrom differ from the reference", name, ti)
			}
			traces++
			events += len(want)
		}
	}
	if traces < 1000 || events < 5000 {
		t.Fatalf("golden corpus gave %d traces and %d trace events; the check covered too little", traces, events)
	}
}

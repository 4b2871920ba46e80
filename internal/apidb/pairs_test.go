package apidb

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

// inferPairsQuadratic is the original pairing loop, kept as the reference
// the bucketed inferPairs must reproduce: for each name, scan the whole
// table for opposite-direction entries on the same struct.
func (db *DB) inferPairsQuadratic(names []string) {
	for _, n := range names {
		a := db.apis[n]
		if a.Pair != "" || a.Struct == "" {
			continue
		}
		var match *API
		count := 0
		for _, b := range db.apis {
			if b.Struct == a.Struct && b.Op != a.Op && b.Op != OpNone {
				match = b
				count++
			}
		}
		if count == 1 {
			a.Pair = match.Name
			if match.Pair == "" {
				match.Pair = a.Name
			}
		}
	}
}

// cloneAPIs deep-copies the API table, the only state pairing touches.
func cloneAPIs(db *DB) *DB {
	c := &DB{apis: make(map[string]*API, len(db.apis))}
	for k, a := range db.apis {
		cp := *a
		c.apis[k] = &cp
	}
	return c
}

// pairCoverage counts, per name and before pairing, how many
// opposite-direction entries share its struct (0, 1 or "2+"), and after
// pairing, how many names with an ambiguous bucket were paired anyway, which
// only an earlier name linking to them can do.
type pairCoverage struct {
	empty, unique, ambiguous, pairedByEarlier int
}

func (c *pairCoverage) before(db *DB, names []string) map[string]int {
	counts := map[string]int{}
	for _, n := range names {
		a := db.apis[n]
		if a.Struct == "" {
			continue
		}
		for _, b := range db.apis {
			if b.Struct == a.Struct && b.Op != a.Op && b.Op != OpNone {
				counts[n]++
			}
		}
		switch counts[n] {
		case 0:
			c.empty++
		case 1:
			c.unique++
		default:
			c.ambiguous++
		}
	}
	return counts
}

func (c *pairCoverage) after(db *DB, counts map[string]int) {
	for n, k := range counts {
		if k >= 2 && db.apis[n].Pair != "" {
			c.pairedByEarlier++
		}
	}
}

// comparePairs fails on every entry whose Pair differs between want and got.
func comparePairs(t *testing.T, label string, want, got *DB) {
	t.Helper()
	if len(want.apis) != len(got.apis) {
		t.Fatalf("%s: %d entries, want %d", label, len(got.apis), len(want.apis))
	}
	for n, w := range want.apis {
		if g := got.apis[n]; g.Pair != w.Pair {
			t.Errorf("%s: %s.Pair = %q, want %q", label, n, g.Pair, w.Pair)
		}
	}
}

// randomPairDB builds a table over a few structs (and no struct) with both
// ops, some OpNone entries and some pre-paired seeds, plus a shuffled list of
// unpaired discovered names, which, as applyAPIs guarantees, all have an op.
func randomPairDB(rng *rand.Rand) (*DB, []string) {
	structs := []string{"", "s0", "s1", "s2", "s3", "s4"}
	db := &DB{apis: map[string]*API{}}
	var names []string
	n := 4 + rng.Intn(40)
	for i := 0; i < n; i++ {
		a := &API{Name: fmt.Sprintf("api%02d", i), Struct: structs[rng.Intn(len(structs))]}
		switch r := rng.Intn(10); {
		case r == 0:
			a.Op = OpNone
		case r < 5:
			a.Op = OpInc
		default:
			a.Op = OpDec
		}
		switch {
		case a.Op != OpNone && rng.Intn(2) == 0:
			names = append(names, a.Name)
		case rng.Intn(3) == 0:
			a.Pair = "seed_pair"
		}
		db.apis[a.Name] = a
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return db, names
}

func TestInferPairsMatchesQuadraticRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cov pairCoverage
	for i := 0; i < 2000; i++ {
		want, names := randomPairDB(rng)
		got := cloneAPIs(want)
		counts := cov.before(want, names)
		want.inferPairsQuadratic(names)
		got.inferPairs(names)
		comparePairs(t, fmt.Sprintf("case %d", i), want, got)
		cov.after(want, counts)
	}
	if cov.empty == 0 || cov.unique == 0 || cov.ambiguous == 0 || cov.pairedByEarlier == 0 {
		t.Errorf("random cases miss a shape: %+v", cov)
	}
}

// corpusObs parses a generated corpus the way the pipeline does and returns
// its observations in sorted path order.
func corpusObs(t *testing.T, c *corpus.Corpus) []FileObs {
	t.Helper()
	files := append([]corpus.File(nil), c.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	headers := cpp.NewIndexedFiles(c.Headers)
	obs := make([]FileObs, 0, len(files))
	for _, f := range files {
		res := cpp.New(headers).Process(f.Path, f.Content)
		file, _ := cparse.ParseFile(f.Path, res.Tokens)
		obs = append(obs, ObserveFile(f.Path, file, res.Macros))
	}
	return obs
}

// TestInferPairsMatchesQuadraticCorpus replays a replicated corpus, whose
// replicas share struct buckets, and checks the bucketed pairing against the
// reference on the exact table applyAPIs hands it.
func TestInferPairsMatchesQuadraticCorpus(t *testing.T) {
	obs := corpusObs(t, corpus.Generate(corpus.Spec{Seed: 1, Scale: 4}))
	got := New()
	got.applyStructs(obs)
	seeded := map[string]string{}
	for n, a := range got.apis {
		seeded[n] = a.Pair
	}
	added := got.applyAPIs(obs)

	// applyAPIs creates its entries unpaired and writes Pair nowhere but in
	// inferPairs, so resetting every Pair to its seeded value (or "")
	// recovers the table inferPairs started from.
	want := cloneAPIs(got)
	for n, a := range want.apis {
		a.Pair = seeded[n]
	}
	var cov pairCoverage
	counts := cov.before(want, added)
	want.inferPairsQuadratic(added)
	cov.after(want, counts)
	comparePairs(t, "corpus", want, got)
	if cov.unique == 0 || cov.ambiguous == 0 {
		t.Errorf("corpus misses a bucket shape: %+v", cov)
	}
}

func TestPutFor(t *testing.T) {
	db := &DB{apis: map[string]*API{}}
	for _, a := range []*API{
		{Name: "obj_release", Op: OpDec, Class: Specific, Struct: "obj"},
		{Name: "obj_put", Op: OpDec, Class: Specific, Struct: "obj"},
		{Name: "obj_dec", Op: OpDec, Class: General, Struct: "obj"},
		{Name: "obj_get", Op: OpInc, Class: Specific, Struct: "obj"},
		{Name: "other_drop", Op: OpDec, Class: Specific, Struct: "other"},
	} {
		db.AddAPI(a)
	}
	if a := db.PutFor("obj"); a == nil || a.Name != "obj_put" {
		t.Errorf("PutFor(obj) = %+v, want obj_put", a)
	}
	db.AddAPI(&API{Name: "obj_a_inc", Op: OpInc, Class: Specific, Struct: "obj"})
	db.AddAPI(&API{Name: "obj_a_dec", Op: OpDec, Class: General, Struct: "obj"})
	if a := db.PutFor("obj"); a == nil || a.Name != "obj_put" {
		t.Errorf("PutFor(obj) with smaller inc and general dec = %+v, want obj_put", a)
	}
	if a := db.PutFor("missing"); a != nil {
		t.Errorf("PutFor(missing) = %+v, want nil", a)
	}
}

// syntheticObs returns n wrapper functions spread over files of eight, each
// forwarding its parameter to a seeded specific get or put. The wrappers
// pile into a few (struct, op) buckets, as a replicated tree's do.
func syntheticObs(n int) []FileObs {
	seeds := []string{
		"of_node_get", "of_node_put", "get_device", "put_device",
		"sock_hold", "sock_put", "pci_dev_get", "pci_dev_put",
	}
	var files []FileObs
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			files = append(files, FileObs{Path: fmt.Sprintf("drivers/f%06d.c", i/8)})
		}
		f := &files[len(files)-1]
		f.Funcs = append(f.Funcs, FuncObs{
			Name:   fmt.Sprintf("wrap%06d", i),
			Params: []string{"o"},
			Calls:  []CallObs{{Callee: seeds[i%len(seeds)], ArgBases: []string{"o"}}},
		})
	}
	return files
}

func BenchmarkApply(b *testing.B) {
	for _, n := range []int{2000, 16000} {
		obs := syntheticObs(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := New()
				b.StartTimer()
				db.Apply(obs)
			}
		})
	}
}

// TestApplyScalesLinearly is a coarse guard against a superlinear term in
// discovery's replay: 8× the wrappers may cost at most 24× the time (a
// linear replay measures about 8×, a quadratic one about 90×). Each size
// takes the best of 3 timings; the large size stops at the first timing
// within the bound, since a better one cannot change the verdict. Timings
// are the process's own CPU time (processCPU), not the wall clock, so load
// from other processes — test packages running beside this one — cannot
// inflate the ratio.
//
// Collection is paused around each timed Apply. The 2k run stays under the
// collector's 4 MB minimum heap and never pays for a cycle while the 16k
// run does, so with the collector on the ratio measured the collector's
// pacing as much as Apply (25–29× in 3 of 12 runs, none under GOGC=off).
// What the pause hides — garbage that grows faster than the input — is
// checked directly: the bytes allocated per wrapper at 16k may be at most
// 3× those at 2k, the same 24× for 8× the input.
func TestApplyScalesLinearly(t *testing.T) {
	const bound = 24
	measure := func(n int, enough time.Duration) (best time.Duration, alloc uint64) {
		obs := syntheticObs(n)
		for r := 0; r < 3 && (r == 0 || best > enough); r++ {
			db := New()
			d, a := timeApply(func() {
				if got := len(db.Apply(obs).APIs); got != n {
					t.Fatalf("Apply added %d APIs, want %d", got, n)
				}
			})
			if r == 0 || d < best {
				best = d
			}
			alloc = a
		}
		return best, alloc
	}
	small, smallAlloc := measure(2000, 0)
	large, largeAlloc := measure(16000, bound*small)
	t.Logf("16k against 2k wrappers: %.1f× the CPU time, %.1f× the bytes allocated",
		float64(large)/float64(small), float64(largeAlloc)/float64(smallAlloc))
	if ratio := float64(large) / float64(small); ratio > bound {
		t.Errorf("Apply: 2k wrappers %v, 16k wrappers %v of CPU: %.1f× for 8× the input", small, large, ratio)
	}
	perSmall, perLarge := float64(smallAlloc)/2000, float64(largeAlloc)/16000
	if perLarge > bound/8*perSmall {
		t.Errorf("Apply: %.0f B allocated per wrapper at 2k, %.0f B at 16k: %.1f× for 8× the input",
			perSmall, perLarge, float64(largeAlloc)/float64(smallAlloc))
	}
}

// timeApply runs fn once with collection paused and returns the CPU time it
// took and the bytes it allocated.
func timeApply(fn func()) (time.Duration, uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := processCPU()
	fn()
	d := processCPU() - start
	runtime.ReadMemStats(&ms)
	return d, ms.TotalAlloc - alloc
}

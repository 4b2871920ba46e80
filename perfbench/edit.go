package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/render"
)

// cacheMem is refcheck's default -cache-mem budget, used for the in-process
// cache handles of the traced run.
const cacheMem = 64 << 20

// runEdit is the CI / pre-commit loop: a fixed, seeded sequence of
// one-file edits that preserve semantics, with a fresh
// `refcheck -cache DIR` process after each. Set-up is the first,
// cache-filling run.
func runEdit(b *bench) (*result, error) {
	tree := filepath.Join(b.work, "tree")
	if _, err := b.writeTree(tree, b.size.editScale); err != nil {
		return nil, err
	}
	truth, err := readTruth(filepath.Join(tree, "GROUND_TRUTH.tsv"))
	if err != nil {
		return nil, err
	}
	files, err := cFiles(tree)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	res := &result{}
	if b.trace {
		return res, b.traceEdit(res, tree, filepath.Join(b.work, "cache"), truth, files, rng)
	}
	refcheck := filepath.Join(b.bin, "refcheck")

	// Each fill starts from a new, empty cache directory; the last one is
	// the edit loop's cache.
	var cache string
	var setups []float64
	for i := 0; i < b.size.setups; i++ {
		cache = filepath.Join(b.work, fmt.Sprintf("cache%d", i))
		quiesce()
		p, err := run(refcheck, "-cache", cache, tree)
		if err == nil {
			err = checkText(truth, p.stdout)
		}
		if err != nil {
			return nil, fmt.Errorf("cache-filling run: %v", err)
		}
		setups = append(setups, p.wall.Seconds())
	}

	var walls []float64
	rss := 0.0
	last := ""
	for k := 0; k < b.size.edits; k++ {
		if err := editFile(files, rng, k); err != nil {
			return nil, err
		}
		quiesce()
		p, err := run(refcheck, "-cache", cache, tree)
		if err == nil {
			err = checkText(truth, p.stdout)
		}
		res.op(err)
		last = p.stdout
		if err != nil {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rss = max(rss, p.rssMB)
	}
	res.op(sameAsUncached(refcheck, tree, last))
	if len(walls) == 0 {
		return nil, fmt.Errorf("every edit failed: %s", res.failures[0])
	}
	disk, err := dirMB(cache)
	if err != nil {
		return nil, err
	}
	res.endToEnd(median(setups), walls, float64(len(walls))/sum(walls), rss)
	res.show("setup_s", median(setups), "s")
	res.show("edit_p50_s", median(walls), "s")
	res.show("edit_max_s", quantile(walls, 1), "s")
	res.show("peak_rss_mb", rss, "MB")
	res.show("cache_disk_mb", disk, "MB")
	return res, nil
}

// sameAsUncached checks that the last cached output is byte-identical to an
// uncached run over the same tree.
func sameAsUncached(refcheck, tree, cached string) error {
	p, err := run(refcheck, tree)
	if err != nil {
		return err
	}
	if p.stdout != cached {
		return fmt.Errorf("last cached output differs from an uncached run of the same tree")
	}
	return nil
}

// cFiles lists the tree's .c files in path order.
func cFiles(tree string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(tree, func(p string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() && strings.HasSuffix(p, ".c") {
			files = append(files, p)
		}
		return err
	})
	sort.Strings(files)
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("%s holds no .c files", tree)
	}
	return files, err
}

// editFile inserts a comment line into a seeded .c file, before a seeded
// line where a comment cannot change the program: not inside a block
// comment, a string, or a line continued with a backslash. The lines
// below it shift, so the reports there move.
func editFile(files []string, rng *rand.Rand, k int) error {
	path := files[rng.Intn(len(files))]
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.SplitAfter(string(b), "\n")
	at := safeLines(lines)
	i := at[rng.Intn(len(at))]
	edited := strings.Join(lines[:i], "") + fmt.Sprintf("/* perfbench edit %d */\n", k) + strings.Join(lines[i:], "")
	return os.WriteFile(path, []byte(edited), 0o644)
}

// safeLines returns the indexes i such that a new line may go before
// lines[i].
func safeLines(lines []string) []int {
	var at []int
	inComment := false
	for i, l := range lines {
		if !inComment && (i == 0 || !strings.HasSuffix(strings.TrimRight(lines[i-1], "\r\n"), `\`)) {
			at = append(at, i)
		}
		inComment = scanComment(l, inComment)
	}
	if len(at) == 0 {
		at = []int{0}
	}
	return at
}

// scanComment reports whether a block comment is still open at the end of
// line, given whether one was open at its start. String and character
// literals are skipped.
func scanComment(line string, open bool) bool {
	for i := 0; i < len(line); i++ {
		switch {
		case open:
			if strings.HasPrefix(line[i:], "*/") {
				open = false
				i++
			}
		case strings.HasPrefix(line[i:], "//"):
			return false
		case strings.HasPrefix(line[i:], "/*"):
			open = true
			i++
		case line[i] == '"' || line[i] == '\'':
			q := line[i]
			for i++; i < len(line) && line[i] != q; i++ {
				if line[i] == '\\' {
					i++
				}
			}
		}
	}
	return open
}

// cachedRun is one in-process `refcheck -cache` equivalent, each cache
// step timed from here and the cache phases read from the program's trace.
type cachedRun struct {
	open, close, lookup, store time.Duration
	reg                        *obs.Registry
	l1Bytes                    int64
	text                       string
}

func cachedAnalyze(ctx context.Context, tree, dir string) (*cachedRun, error) {
	loaded, err := loader.LoadDirs(tree)
	if err != nil {
		return nil, err
	}
	cr := &cachedRun{}
	t := time.Now()
	c, err := analysiscache.Open(dir, analysiscache.WithMemory(cacheMem))
	cr.open = time.Since(t)
	if err != nil {
		return nil, err
	}
	tr := obs.New("perfbench")
	run, err := core.Analyze(ctx, core.Request{
		Sources: loaded.Sources, Headers: loaded.Headers,
		Options: core.Options{Cache: c}, Trace: tr,
	})
	cr.l1Bytes = c.Stats().L1Bytes
	t = time.Now()
	cerr := c.Close()
	cr.close = time.Since(t)
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	tr.Done()
	for _, ph := range obs.Stats(tr).Phases {
		d := time.Duration(ph.MS * float64(time.Millisecond))
		switch ph.Name {
		case "phase:cache-lookup":
			cr.lookup += d
		case "phase:cache-store":
			cr.store += d
		}
	}
	cr.reg = tr.Reg()
	var text bytes.Buffer
	render.WriteText(&text, run.Reports, run.Summary)
	cr.text = text.String()
	return cr, nil
}

// traceEdit is edit-s6's traced run: the layer ledger over the unedited
// tree, then the edit sequence in process with each cache step timed.
func (b *bench) traceEdit(res *result, tree, cache string, truth *corpus.Corpus, files []string, rng *rand.Rand) error {
	if err := b.traceLayers(res, tree, truth); err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := cachedAnalyze(ctx, tree, cache); err != nil {
		return fmt.Errorf("cache-filling run: %v", err)
	}
	disk0, err := dirMB(cache)
	if err != nil {
		return err
	}
	var open, lookup, store, closeT []float64
	var hits [3][2]int64 // front end, unit, facts × hit, miss
	var evict, leaders, l1 int64
	last := ""
	for k := 0; k < b.size.edits; k++ {
		if err := editFile(files, rng, k); err != nil {
			return err
		}
		cr, err := cachedAnalyze(ctx, tree, cache)
		if err == nil {
			err = checkText(truth, cr.text)
		}
		res.op(err)
		if err != nil {
			continue
		}
		last = cr.text
		open = append(open, cr.open.Seconds())
		lookup = append(lookup, cr.lookup.Seconds())
		store = append(store, cr.store.Seconds())
		closeT = append(closeT, cr.close.Seconds())
		for i, layer := range []string{"frontend.cache", "cache.unit", "cache.facts"} {
			hits[i][0] += cr.reg.Counter(layer + ".hit")
			hits[i][1] += cr.reg.Counter(layer + ".miss")
		}
		evict += cr.reg.Counter("cache.l1.evict")
		leaders += cr.reg.Counter("cache.singleflight.leader")
		l1 = max(l1, cr.l1Bytes)
	}
	res.op(sameAsUncached(filepath.Join(b.bin, "refcheck"), tree, last))
	disk, err := dirMB(cache)
	if err != nil {
		return err
	}
	res.set("cache.open_s", median(open))
	res.set("cache.lookup_s", median(lookup))
	res.set("cache.store_s", median(store))
	res.set("cache.close_s", median(closeT))
	for i, name := range []string{"cache.frontend_hit_ratio", "cache.unit_hit_ratio", "cache.facts_hit_ratio"} {
		res.set(name, ratio(float64(hits[i][0]), float64(hits[i][0]+hits[i][1])))
	}
	res.set("cache.disk_mb_per_edit", (disk-disk0)/float64(b.size.edits))
	res.set("cache.disk_mb", disk)
	res.set("cache.l1_bytes", float64(l1))
	res.set("cache.l1_evict", float64(evict))
	res.set("cache.singleflight_leaders", float64(leaders))
	zeroServe(res)
	return nil
}

package patch

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpg"
)

func TestFixP4MissingGet(t *testing.T) {
	src := `
static struct device_node *next_of(struct device_node *from)
{
	struct device_node *np = of_find_matching_node(from, matches);
	return np;
}`
	reports := checkOne(t, "fix.c", src)
	var target *core.Report
	for i := range reports {
		if reports[i].Pattern == core.P4 && reports[i].Impact == core.UAF {
			target = &reports[i]
		}
	}
	if target == nil {
		t.Fatalf("no P4/UAF report: %+v", reports)
	}
	fix := Generate(src, *target)
	if !fix.OK {
		t.Fatalf("not generated: %s", fix.Reason)
	}
	// The hold must precede the consuming call.
	getIdx := strings.Index(fix.NewContent, "of_node_get(from);")
	callIdx := strings.Index(fix.NewContent, "of_find_matching_node(from")
	if getIdx < 0 || getIdx > callIdx {
		t.Fatalf("hold misplaced:\n%s", fix.NewContent)
	}
	after := checkOne(t, "fix.c", fix.NewContent)
	for _, r := range after {
		if r.Pattern == core.P4 && r.Impact == core.UAF {
			t.Fatalf("report survives:\n%s", fix.NewContent)
		}
	}
}

// checkTree runs core.Analyze, uncached and unconfirmed, over sources.
func checkTree(t *testing.T, sources []cpg.Source, headers map[string]string) []core.Report {
	t.Helper()
	run, err := core.Analyze(context.Background(), core.Request{Sources: sources, Headers: headers})
	if err != nil {
		t.Fatal(err)
	}
	return run.Reports
}

// TestCorpusFixCoverage generates patches for every checker report on the
// synthetic kernel and measures coverage: every report must either get a
// mechanical patch or carry a manual-fix reason (P6 cross-function cases and
// discarded-reference P4s). A sample of patched files is re-checked to show
// the patches actually silence their reports.
func TestCorpusFixCoverage(t *testing.T) {
	c := corpus.Generate(corpus.Spec{Seed: 1})
	var sources []cpg.Source
	contentOf := map[string]string{}
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
		contentOf[f.Path] = f.Content
	}
	reports := checkTree(t, sources, c.Headers)

	patched, manual := 0, 0
	patchedFiles := map[string]bool{}
	for _, r := range reports {
		fx := Generate(contentOf[r.File], r)
		switch {
		case fx.OK:
			patched++
			patchedFiles[r.File] = true
			if !strings.Contains(fx.Diff, "+++ b/"+r.File) {
				t.Fatalf("malformed diff for %s", r.File)
			}
		case r.Pattern == core.P6, r.Object == "":
			manual++ // expected manual classes
		default:
			manual++
			t.Errorf("unexpectedly unfixable: %s (%s)", r.String(), fx.Reason)
		}
	}
	if patched < len(reports)*2/3 {
		t.Errorf("patched %d of %d reports", patched, len(reports))
	}
	t.Logf("patched %d, manual %d of %d reports", patched, manual, len(reports))

	// Spot-verify: apply all patches for a few single-bug files and
	// re-check those files in isolation.
	verified := 0
	for _, f := range c.Files {
		if verified >= 8 || !patchedFiles[f.Path] {
			continue
		}
		content := f.Content
		for rounds := 0; rounds < 12; rounds++ {
			rs := checkTree(t, []cpg.Source{{Path: f.Path, Content: content}}, c.Headers)
			var next *core.Report
			for i := range rs {
				fx := Generate(content, rs[i])
				if fx.OK {
					next = &rs[i]
					content = fx.NewContent
					break
				}
			}
			if next == nil {
				break
			}
		}
		rs := checkTree(t, []cpg.Source{{Path: f.Path, Content: content}}, c.Headers)
		for _, r := range rs {
			fx := Generate(content, r)
			if fx.OK {
				t.Errorf("%s: fixable report survives the fixpoint: %s", f.Path, r.String())
			}
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no files verified")
	}
}

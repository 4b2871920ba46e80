package cpp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clex"
)

func renderToks(toks []clex.Token) string {
	out := ""
	for _, t := range toks {
		out += fmt.Sprintf("%v %q %s %v %v\n", t.Kind, t.Text, t.Pos, t.Origin, t.LeadingSpace)
	}
	return out
}

// TestMapFilesSuffixDeterministic pins the fixed resolution rule: with
// several paths sharing a suffix, the lexicographically smallest wins on
// every lookup, independent of map iteration order.
func TestMapFilesSuffixDeterministic(t *testing.T) {
	m := MapFiles{
		"b/linux/of.h": "#define WHICH 2\n",
		"a/linux/of.h": "#define WHICH 1\n",
		"c/linux/of.h": "#define WHICH 3\n",
	}
	for i := 0; i < 50; i++ {
		s, ok := m.ReadFile("linux/of.h")
		if !ok || s != "#define WHICH 1\n" {
			t.Fatalf("iteration %d: got %q, %v; want smallest-path content", i, s, ok)
		}
	}
}

// TestIndexedFilesMatchesMapFiles proves the O(1) suffix index resolves
// exactly like the scanning provider on exact hits, suffix hits, ambiguous
// suffixes, and misses.
func TestIndexedFilesMatchesMapFiles(t *testing.T) {
	files := map[string]string{
		"include/linux/of.h":     "of",
		"arch/arm/linux/of.h":    "arm-of",
		"include/linux/kref.h":   "kref",
		"drivers/base/core.c":    "core",
		"include/linux/sub/x.h":  "x",
		"include2/linux/sub/x.h": "x2",
	}
	m := MapFiles(files)
	ix := NewIndexedFiles(files)
	queries := []string{
		"include/linux/of.h", // exact
		"linux/of.h",         // ambiguous suffix → smallest path (arch/arm...)
		"of.h",
		"kref.h",
		"sub/x.h",
		"linux/sub/x.h",
		"x.h",
		"missing.h",
		"core.c",
	}
	for _, q := range queries {
		ms, mok := m.ReadFile(q)
		is, iok := ix.ReadFile(q)
		if ms != is || mok != iok {
			t.Errorf("query %q: MapFiles=(%q,%v) IndexedFiles=(%q,%v)", q, ms, mok, is, iok)
		}
	}
}

// TestHeaderCachePreservesOutput runs the same two-TU preprocess with and
// without a shared header cache; the expanded token streams (kinds, texts,
// positions, provenance) must be identical, and the cached run must serve
// the header from one lexing.
func TestHeaderCachePreservesOutput(t *testing.T) {
	headers := MapFiles{
		"linux/of.h": "#define of_node_get(n) __of_node_get(n)\nstruct device_node;\n",
	}
	srcs := map[string]string{
		"a.c": "#include <linux/of.h>\nvoid a(void) { of_node_get(np); }\n",
		"b.c": "#include <linux/of.h>\nvoid b(void) { of_node_get(np); }\n",
	}
	hc := NewHeaderCache()
	for file, src := range srcs {
		plain := New(headers).Process(file, src)
		cached := New(headers).WithHeaderCache(hc).Process(file, src)
		if got, want := renderToks(cached.Tokens), renderToks(plain.Tokens); got != want {
			t.Errorf("%s: cached output differs:\n got:\n%s want:\n%s", file, got, want)
		}
		if len(cached.Errors) != len(plain.Errors) {
			t.Errorf("%s: error counts differ: %d vs %d", file, len(cached.Errors), len(plain.Errors))
		}
	}
	if n := len(hc.m); n != 1 {
		t.Errorf("header cache holds %d entries, want 1", n)
	}
}

// TestHeaderCacheContentMismatch: a path served with different content within
// one run must bypass the stale cached form.
func TestHeaderCacheContentMismatch(t *testing.T) {
	hc := NewHeaderCache()
	a := hc.lex("h.h", "#define A 1\n")
	b := hc.lex("h.h", "#define A 2\n")
	if renderToks(a.lines.Line(0)) == renderToks(b.lines.Line(0)) {
		t.Fatal("mismatched content served stale tokens")
	}
	if got := hc.HashOf("h.h", "#define A 2\n"); got == a.hash {
		t.Fatal("HashOf returned the stale content hash")
	}
}

// TestTrackIncludes pins the include-closure recording: resolved headers
// carry their content hash, transitive includes appear, and unresolved paths
// are recorded with an empty hash.
func TestTrackIncludes(t *testing.T) {
	headers := MapFiles{
		"linux/outer.h": "#include <linux/inner.h>\n#define OUT 1\n",
		"linux/inner.h": "#define IN 1\n",
	}
	p := New(headers).TrackIncludes()
	res := p.Process("a.c", "#include <linux/outer.h>\n#include <linux/gone.h>\nint x = OUT + IN;\n")
	want := map[string]bool{"linux/outer.h": true, "linux/inner.h": true, "linux/gone.h": false}
	if len(res.Includes) != len(want) {
		t.Fatalf("recorded %d deps, want %d: %+v", len(res.Includes), len(want), res.Includes)
	}
	for _, d := range res.Includes {
		resolved, known := want[d.Path]
		if !known {
			t.Errorf("unexpected dep %q", d.Path)
			continue
		}
		if resolved && d.Hash == "" {
			t.Errorf("%s: resolved include recorded without hash", d.Path)
		}
		if !resolved && d.Hash != "" {
			t.Errorf("%s: missing include recorded with hash %q", d.Path, d.Hash)
		}
		if resolved {
			content, _ := headers.ReadFile(d.Path)
			if d.Hash != hashContent(content) {
				t.Errorf("%s: hash mismatch", d.Path)
			}
		}
	}
}

// TestTUMacroBodySurvivesLineReuse pins the define-copy rule. A TU's own
// lines are pooled and recycled when its Process returns, so a macro the TU
// defines must keep its body after later TUs reuse that storage (under
// -tags arenadebug the pool also clears recycled buffers, so an aliased body
// would read zero tokens even without reuse). A header-defined body, whose
// line belongs to the shared header cache, still aliases it.
func TestTUMacroBodySurvivesLineReuse(t *testing.T) {
	const want = "of_node_put(x);of_node_put(y)"
	spell := func(toks []clex.Token) string {
		out := ""
		for _, tk := range toks {
			out += tk.Text
		}
		return out
	}
	first := New(nil).Process("a.c", "#define PUT_BOTH(x, y) of_node_put(x); of_node_put(y)\nint a;\n")
	m := first.Macros["PUT_BOTH"]
	if m == nil || !m.FuncLike || spell(m.Body) != want {
		t.Fatalf("PUT_BOTH = %+v, want a function-like macro spelling %q", m, want)
	}
	for i := 0; i < 8; i++ {
		New(nil).Process(fmt.Sprintf("b%d.c", i), strings.Repeat("int filler_token_that_overwrites = 42;\n", 40+i))
	}
	if got := spell(m.Body); got != want {
		t.Fatalf("PUT_BOTH body after later TUs = %q, want %q", got, want)
	}
	pp := New(nil)
	pp.macros["PUT_BOTH"] = m
	res := pp.Process("c.c", "void f(void) { PUT_BOTH(np, child); }\n")
	if got := spell(res.Tokens); got != "voidf(void){of_node_put(np);of_node_put(child);}" {
		t.Fatalf("expansion after reuse = %q", got)
	}

	hc := NewHeaderCache()
	const hdr = "#define GET(n) of_node_get(n)\n"
	hres := New(MapFiles{"h.h": hdr}).WithHeaderCache(hc).Process("d.c", "#include \"h.h\"\n")
	body := hres.Macros["GET"].Body
	toks := hc.lex("h.h", hdr).lines.Toks
	aliased := false
	for i := range toks {
		aliased = aliased || len(body) > 0 && &body[0] == &toks[i]
	}
	if !aliased {
		t.Fatal("header-defined macro body does not alias the header cache's lines")
	}
}

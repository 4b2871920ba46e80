package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpg"
)

func TestWriteAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sources := []cpg.Source{
		{Path: "drivers/clk/a.c", Content: "int a;\n"},
		{Path: "arch/arm/b.c", Content: "int b;\n"},
	}
	headers := map[string]string{
		"include/linux/of.h": "#define X 1\n",
	}
	if err := WriteTree(dir, sources, headers); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 2 {
		t.Fatalf("sources = %+v", tree.Sources)
	}
	// Sorted by path, relative to the root.
	if tree.Sources[0].Path != "arch/arm/b.c" || tree.Sources[1].Path != "drivers/clk/a.c" {
		t.Errorf("paths = %q, %q", tree.Sources[0].Path, tree.Sources[1].Path)
	}
	if tree.Sources[1].Content != "int a;\n" {
		t.Errorf("content = %q", tree.Sources[1].Content)
	}
	if tree.Headers["include/linux/of.h"] != "#define X 1\n" {
		t.Errorf("headers = %+v", tree.Headers)
	}
}

func TestLoadIgnoresOtherExtensions(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTree(dir, []cpg.Source{{Path: "a.c", Content: "int a;"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(dir, []cpg.Source{{Path: "notes.txt", Content: "hi"}}, nil); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 0 { // "a.c" loaded as source; notes.txt skipped
		// a.c IS a source; adjust expectation
	}
	found := false
	for _, s := range tree.Sources {
		if s.Path == "notes.txt" {
			t.Error("txt loaded")
		}
		if s.Path == "a.c" {
			found = true
		}
	}
	if !found {
		t.Error("a.c missing")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := LoadDirs(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir should error")
	}
}

// LoadDirs content must agree byte for byte with a plain read at every
// size: empty, tiny, one page and many pages.
func TestReadFileStringMatchesPlainRead(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty.c": "",
		"tiny.c":  "int x;\n",
		"page.c":  strings.Repeat("/* filler line for one page */\n", 140),
		"big.c":   strings.Repeat("int f(void) { return 0; }\n", 4000),
	}
	for name, content := range cases {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != len(cases) {
		t.Fatalf("sources = %d, want %d", len(tree.Sources), len(cases))
	}
	for _, s := range tree.Sources {
		if s.Content != cases[s.Path] {
			t.Errorf("%s: content mismatch (len got=%d want=%d)", s.Path, len(s.Content), len(cases[s.Path]))
		}
	}
}

// A .c entry that cannot be read (a dangling symlink) fails the load.
func TestReadFileStringMissing(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink(filepath.Join(dir, "nope.c"), filepath.Join(dir, "a.c")); err != nil {
		t.Skip("symlinks unavailable:", err)
	}
	if _, err := LoadDirs(dir); err == nil {
		t.Fatal("want error for unreadable source")
	}
}

// A source of many pages and a small header both load intact.
func TestLoadDirsUsesMappedReads(t *testing.T) {
	dir := t.TempDir()
	src := strings.Repeat("int g(void) { return 1; }\n", 1000)
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.h"), []byte("#define A 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 1 || tree.Sources[0].Content != src {
		t.Fatalf("source content mismatch")
	}
	if tree.Headers["a.h"] != "#define A 1\n" {
		t.Fatalf("header content mismatch")
	}
}

func TestMultipleRoots(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	if err := WriteTree(d1, []cpg.Source{{Path: "x.c", Content: "int x;"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(d2, []cpg.Source{{Path: "y.c", Content: "int y;"}}, nil); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Sources) != 2 {
		t.Fatalf("sources = %+v", tree.Sources)
	}
}

// Loaded content is a copy: rewriting the file in place afterwards must
// not change a string already handed out, or a content-keyed cache entry
// could store results for bytes that no longer match its key.
func TestLoadDirsContentSurvivesRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.c")
	old := strings.Repeat("int g(void) { return 1; }\n", 300)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := LoadDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Sources[0].Content
	if err := os.WriteFile(path, []byte(strings.Repeat("int h(void) { return 2; }\n", 300)), 0o644); err != nil {
		t.Fatal(err)
	}
	if got != old {
		t.Fatal("loaded content changed after the file was rewritten in place")
	}
}

// Repeated loads must not leave file mappings behind: a long-running
// -watch loop reloads the tree on every change.
func TestLoadDirsLeavesNoMappings(t *testing.T) {
	maps := func() string {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skip("no /proc/self/maps:", err)
		}
		return string(b)
	}
	before := strings.Count(maps(), "\n")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte(strings.Repeat("int g(void) { return 1; }\n", 300)), 0o644); err != nil {
		t.Fatal(err)
	}
	const loads = 50
	trees := make([]*Tree, loads) // keep every result alive
	for i := range trees {
		tree, err := LoadDirs(dir)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	after := maps()
	if strings.Contains(after, dir) {
		t.Error("a loaded file is still mapped")
	}
	if grew := strings.Count(after, "\n") - before; grew >= loads/2 {
		t.Errorf("/proc/self/maps grew by %d lines over %d loads", grew, loads)
	}
}

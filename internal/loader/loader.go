// Package loader collects C sources and headers from directories for the
// analysis tools, with deterministic ordering.
package loader

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cpg"
)

// Tree is a loaded source tree.
type Tree struct {
	Sources []cpg.Source
	Headers map[string]string
}

// LoadDirs walks the roots recursively, loading .c files as sources and .h
// files as headers. Paths in the result are relative to the respective root
// when the file lies underneath it (keeping subsystem/module structure
// intact for reporting), else absolute.
func LoadDirs(roots ...string) (*Tree, error) {
	t := &Tree{Headers: map[string]string{}}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			ext := filepath.Ext(path)
			if ext != ".c" && ext != ".h" {
				return nil
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			content := string(data)
			rel := path
			if r, e := filepath.Rel(root, path); e == nil && !strings.HasPrefix(r, "..") {
				rel = filepath.ToSlash(r)
			}
			if ext == ".c" {
				t.Sources = append(t.Sources, cpg.Source{Path: rel, Content: content})
			} else {
				t.Headers[rel] = content
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(t.Sources, func(i, j int) bool { return t.Sources[i].Path < t.Sources[j].Path })
	return t, nil
}

// WriteTree writes sources and headers under dir, creating directories as
// needed (the refgen output path).
func WriteTree(dir string, sources []cpg.Source, headers map[string]string) error {
	write := func(rel, content string) error {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(content), 0o644)
	}
	for _, s := range sources {
		if err := write(s.Path, s.Content); err != nil {
			return err
		}
	}
	for p, s := range headers {
		if err := write(p, s); err != nil {
			return err
		}
	}
	return nil
}

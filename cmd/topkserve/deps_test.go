package main

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTopkserveLinksNoPaperBaseline walks this command's transitive imports
// inside the module and fails if it reaches the root topk package, any
// package of a structure topkserve never serves, or internal/shard, the
// end-to-end harness's wrapper of the library: every collection is one
// invindex.Mutable, and the paper baselines belong to topkquery and
// topkbench. The walk reads the package directories with go/build, so it
// runs no go command.
func TestTopkserveLinksNoPaperBaseline(t *testing.T) {
	const module = "topk"
	banned := []string{module}
	for _, p := range []string{"adaptsearch", "bktree", "blocked", "coarse", "costmodel", "stats", "knn", "mtree", "vptree", "shard"} {
		banned = append(banned, module+"/internal/"+p)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path string, via []string)
	walk = func(path string, via []string) {
		if seen[path] {
			return
		}
		seen[path] = true
		via = append(via[:len(via):len(via)], path)
		if slices.Contains(banned, path) {
			t.Errorf("topkserve links %s: %s", path, strings.Join(via, " -> "))
		}
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				walk(imp, via)
			}
		}
	}
	walk(module+"/cmd/topkserve", nil)
	if !seen[module+"/internal/invindex"] {
		t.Fatal("the walk never reached internal/invindex: it is not following the imports")
	}
}

package stats_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyPlanImportsStats keeps the stub from gaining callers again.
// Outside bench/, which still compiles against these names, the only
// non-test package that may import internal/stats is internal/plan, for
// the signatures bench/ calls (Optimize, CheckPremises, ShardPlan). The
// test runs in internal/stats, two levels below the module root.
func TestOnlyPlanImportsStats(t *testing.T) {
	root := filepath.Join("..", "..")
	const stats = "certsql/internal/stats"
	importers := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range parsed.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == stats {
				importers[filepath.ToSlash(filepath.Dir(rel))] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range importers {
		if dir != "internal/plan" {
			t.Errorf("%s imports %s: only internal/plan may, for the signatures bench/ names", dir, stats)
		}
	}
	if !importers["internal/plan"] {
		t.Errorf("internal/plan no longer imports %s: the stub has no caller outside bench/; delete it with them", stats)
	}
}

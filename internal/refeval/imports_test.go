package refeval_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the import path of the repository's module (go.mod).
const module = "certsql"

// TestOracleIndependence keeps the oracle apart from the engine it
// certifies. refeval may reach only the algebra and the value layer it
// shares with the engine, and brute-force ground truth
// (internal/certain), which runs every valuation on refeval, must not
// reach the executor, the planner, statistics, routing or the plan
// cache: otherwise a check of Theorem 1 or Lemma 2 could compare the
// engine with itself.
func TestOracleIndependence(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"algebra", "schema", "sql", "table", "tvl", "value"} {
		allowed[module+"/internal/"+p] = true
	}
	for _, p := range deps(t, module+"/internal/refeval") {
		if !allowed[p] {
			t.Errorf("internal/refeval imports %s, outside the algebra and the value layer", p)
		}
	}

	certainDeps := map[string]bool{}
	for _, p := range deps(t, module+"/internal/certain") {
		certainDeps[p] = true
	}
	for _, engine := range []string{"eval", "plan", "stats", "shard", "plancache"} {
		if p := module + "/internal/" + engine; certainDeps[p] {
			t.Errorf("internal/certain imports %s: brute force must not reach the engine it checks", p)
		}
	}
}

// deps returns the in-module packages pkg imports, directly or
// transitively, sorted. It reads the import clauses of each package's
// non-test files; the test runs in internal/refeval, two levels below
// the module root.
func deps(t *testing.T, pkg string) []string {
	t.Helper()
	seen := map[string]bool{}
	var visit func(p string)
	visit = func(p string) {
		dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, module), "/")))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files in %s", p, dir)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if (path == module || strings.HasPrefix(path, module+"/")) && !seen[path] {
					seen[path] = true
					visit(path)
				}
			}
		}
	}
	visit(pkg)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

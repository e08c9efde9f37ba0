// Command vetcert is the engine's type-aware invariant linter: a
// repo-local static-analysis suite that checks, at compile time, the
// contracts the chaos suite and difftest can only probe dynamically —
// governance polling on row loops, memory-charge balance, context
// threading, snapshot discipline, guard-sentinel hygiene, and the
// closed-sum exhaustiveness rules migrated from the retired astlint.
//
// Usage:
//
//	vetcert [flags] [package-dir ...]
//
// With no package arguments it discovers targets from the module graph
// (the root package plus everything under internal/... and cmd/...),
// so new packages are linted by default. Flags:
//
//	-root dir      module root (default ".")
//	-exclude list  comma-separated path prefixes to skip in discovery
//	-enable list   run only these rules (comma-separated)
//	-disable list  skip these rules
//	-json          machine-readable findings on stdout
//	-rules         list registered rules and exit
//	-v             also print the checked-package and rule summary
//
// Suppressions: `// vetcert:ignore <rule>[, <rule>...][: reason]` on
// the offending line, the comment block above it, or the enclosing
// function's doc comment.
//
// vetcert owns the lint aggregate exit code: 0 clean, 1 findings,
// 2 operational error (bad flags, unparseable or untypeable source).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"certsql/tools/vetcert/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("vetcert", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		root      = fs.String("root", ".", "module root directory")
		exclude   = fs.String("exclude", "", "comma-separated path prefixes excluded from target discovery")
		enable    = fs.String("enable", "", "comma-separated rules to run (default: all)")
		disable   = fs.String("disable", "", "comma-separated rules to skip")
		jsonOut   = fs.Bool("json", false, "emit findings as JSON")
		listRules = fs.Bool("rules", false, "list registered rules and exit")
		verbose   = fs.Bool("v", false, "print checked-package summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, r := range vet.Rules() {
			fmt.Fprintf(out, "%-16s %s\n", r.Name, r.Doc)
		}
		return 0
	}
	rules, err := vet.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintf(errOut, "vetcert: %v\n", err)
		return 2
	}
	loader, err := vet.NewLoader(*root)
	if err != nil {
		fmt.Fprintf(errOut, "vetcert: %v\n", err)
		return 2
	}
	targets := fs.Args()
	if len(targets) == 0 {
		targets, err = vet.DiscoverTargets(loader.Root(), nil, splitList(*exclude))
		if err != nil {
			fmt.Fprintf(errOut, "vetcert: discovering targets: %v\n", err)
			return 2
		}
	}
	var pkgs []*vet.Package
	for _, dir := range targets {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(errOut, "vetcert: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	findings := vet.Run(pkgs, loader.Fset, rules, loader.Local)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []vet.Diagnostic{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(errOut, "vetcert: %v\n", err)
			return 2
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(out, d)
		}
	}
	if *verbose || (len(findings) > 0 && !*jsonOut) {
		fmt.Fprintf(errOut, "vetcert: %d package(s), %d rule(s), %d finding(s)\n", len(pkgs), len(rules), len(findings))
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

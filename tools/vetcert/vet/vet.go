// Package vet is the analyzer framework behind the vetcert linter: a
// repo-local, type-aware static-analysis suite over stdlib go/ast +
// go/types + go/importer (the module carries no dependencies, so the
// framework does not either).
//
// The thesis, carried over from astlint (PR 3) and extended with type
// information: the engine's runtime contracts — governance polling,
// memory-charge balance, context threading, snapshot isolation, the
// guard error taxonomy — are closed invariants, and a closed invariant
// that is only checked dynamically (chaos suite, difftest) must be
// *hit* to be found. Encoding each as a lint turns "a violation exists
// somewhere" into a compile-time-checked property of every function in
// the repo, including the ones no seed ever reaches.
//
// A Rule inspects one type-checked package at a time through a Pass
// and reports positioned findings. Rules register themselves in an
// ordered registry; the driver (tools/vetcert, and the tools/astlint
// compatibility shim) selects rules, loads packages, runs every
// selected rule over every target, and aggregates the exit code:
// 0 clean, 1 findings, 2 operational error.
//
// Findings are suppressed line by line with
//
//	// vetcert:ignore <rule>[, <rule>...][: reason]
//
// on the offending line, in the comment block directly above it, or in
// the doc comment of the enclosing function (a "documented pin").
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule is one invariant checker. Run is called once per loaded target
// package and reports findings through the Pass.
type Rule struct {
	// Name is the stable identifier used in -enable/-disable flags,
	// suppression comments, and diagnostics.
	Name string
	// Doc is the one-line description shown by -rules.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
}

// registry holds the registered rules in registration order.
var registry []Rule

// Register adds a rule to the registry. Rules register from init
// functions; duplicate names panic — they would make -enable lists and
// suppression comments ambiguous.
func Register(r Rule) {
	for _, have := range registry {
		if have.Name == r.Name {
			panic("vet: duplicate rule " + r.Name)
		}
	}
	registry = append(registry, r)
}

// Rules returns the registered rules in registration order.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// RuleNames returns the registered rule names in registration order.
func RuleNames() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.Name
	}
	return names
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Pass carries one type-checked package through one rule run.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Local reports whether a types.Package was loaded from the module
	// (or a corpus root) rather than the stdlib — the universe rules
	// like enumswitch confine themselves to.
	Local func(*types.Package) bool

	rule  string
	sink  func(Diagnostic)
	state *passState
}

// passState caches per-package computations shared by rules (the
// suppression index, the intra-package call graph).
type passState struct {
	suppress map[suppressKey]map[string]bool // file:line → suppressed rule set ("*" = all)
	graph    *callGraph
}

// suppressKey addresses one source line. Suppressions must be keyed by
// file AND line: a multi-file package indexed by bare line numbers
// would let an annotation in one file silence a finding at the same
// line of a sibling file.
type suppressKey struct {
	file string
	line int
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("certsql/internal/eval")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// PathHasSuffix reports whether the package's import path is suffix or
// ends in "/"+suffix — the way rules recognize the engine's well-known
// packages (internal/guard, internal/table, …) both in the real module
// and under the self-test corpus roots.
func PathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// report emits a finding at pos unless a suppression covers it.
func (p *Pass) report(pos token.Pos, enclosing *ast.FuncDecl, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position.Filename, position.Line) {
		return
	}
	if enclosing != nil && p.suppressedFunc(enclosing) {
		return
	}
	p.sink(Diagnostic{
		Rule:    p.rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// suppressedAt reports whether line (or the comment line above it)
// carries a suppression for the running rule.
func (p *Pass) suppressedAt(file string, line int) bool {
	idx := p.suppressIndex()
	for _, l := range [...]int{line, line - 1} {
		set := idx[suppressKey{file, l}]
		if set == nil {
			continue
		}
		if set[p.rule] || set["*"] {
			return true
		}
	}
	return false
}

// suppressedFunc reports whether the enclosing function's doc comment
// carries a suppression for the running rule — the "documented pin"
// form, where the whole function opts out with a stated reason.
func (p *Pass) suppressedFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	idx := p.suppressIndex()
	start := p.Fset.Position(fd.Doc.Pos())
	for l := start.Line; l <= p.Fset.Position(fd.Doc.End()).Line; l++ {
		if set := idx[suppressKey{start.Filename, l}]; set != nil && (set[p.rule] || set["*"]) {
			return true
		}
	}
	return false
}

// suppressIndex builds (once per package) the file:line →
// suppressed-rules map from vetcert:ignore comments.
func (p *Pass) suppressIndex() map[suppressKey]map[string]bool {
	if p.state.suppress != nil {
		return p.state.suppress
	}
	idx := map[suppressKey]map[string]bool{}
	mark := func(file string, line int, rules ...string) {
		key := suppressKey{file, line}
		set := idx[key]
		if set == nil {
			set = map[string]bool{}
			idx[key] = set
		}
		for _, r := range rules {
			set[r] = true
		}
	}
	for _, file := range p.Pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "vetcert:ignore")
				if i < 0 {
					continue
				}
				spec := text[i+len("vetcert:ignore"):]
				// Everything after a colon is the stated reason; what
				// precedes it is the comma-separated rule list.
				if j := strings.IndexByte(spec, ':'); j >= 0 {
					spec = spec[:j]
				}
				var rules []string
				for _, f := range strings.Split(spec, ",") {
					if f = strings.TrimSpace(f); f != "" {
						rules = append(rules, f)
					}
				}
				if len(rules) == 0 {
					rules = []string{"*"} // bare vetcert:ignore suppresses everything
				}
				start := p.Fset.Position(cg.Pos())
				for l := start.Line; l <= p.Fset.Position(cg.End()).Line; l++ {
					mark(start.Filename, l, rules...)
				}
			}
		}
	}
	p.state.suppress = idx
	return idx
}

// Run executes the selected rules over the loaded packages and returns
// the findings sorted by position then rule. local distinguishes
// module/corpus packages from the stdlib (nil means "nothing local").
func Run(pkgs []*Package, fset *token.FileSet, rules []Rule, local func(*types.Package) bool) []Diagnostic {
	if local == nil {
		local = func(*types.Package) bool { return false }
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		state := &passState{}
		for _, r := range rules {
			pass := &Pass{
				Fset:  fset,
				Pkg:   pkg,
				Local: local,
				rule:  r.Name,
				state: state,
				sink:  func(d Diagnostic) { out = append(out, d) },
			}
			r.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// Select resolves -enable/-disable lists against the registry. An
// empty enable list means every registered rule. Unknown names are an
// error — a typo would otherwise silently skip the check.
func Select(enable, disable string) ([]Rule, error) {
	known := map[string]Rule{}
	for _, r := range registry {
		known[r.Name] = r
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		if strings.TrimSpace(list) == "" {
			return set, nil
		}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := known[name]; !ok {
				return nil, fmt.Errorf("unknown rule %q (have: %s)", name, strings.Join(RuleNames(), ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []Rule
	for _, r := range registry {
		if len(on) > 0 && !on[r.Name] {
			continue
		}
		if off[r.Name] {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

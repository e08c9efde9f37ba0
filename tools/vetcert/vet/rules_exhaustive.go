package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The three rules migrated from tools/astlint, rebuilt on go/types.
// astlint matched families and enums textually (case identifiers
// against source-discovered member lists); here membership is decided
// by the type checker — types.Implements for interface families,
// object identity for sentinels and enum constants — so import
// aliases, embedded forwarding, and same-name types in different
// packages can no longer fool the linter in either direction.

func init() {
	Register(Rule{
		Name: "famexhaustive",
		Doc:  "type switches over the closed AST/algebra/iterator families must be exhaustive or carry a loud default",
		Run:  runFamExhaustive,
	})
	Register(Rule{
		Name: "sentinelswitch",
		Doc:  "a switch dispatching on guard sentinels must name every sentinel the taxonomy declares",
		Run:  runSentinelSwitch,
	})
	Register(Rule{
		Name: "enumswitch",
		Doc:  "switches over repo-declared constant enums must be exhaustive or carry a loud default (RuleKind: always every constant)",
		Run:  runEnumSwitch,
	})
}

// familyPkgs are the packages whose interfaces form the closed node
// families: the SQL AST, the algebra and the streaming executor's
// iterators. (A family is any interface there with at least two
// in-package implementations.)
var familyPkgs = []string{"internal/sql", "internal/algebra", evalPkg}

// familyOf returns the concrete package-scope implementations of
// iface within its defining package when iface is a closed family
// (defined in a family package, non-empty, ≥2 members), else nil.
func familyOf(named *types.Named) []*types.Named {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return nil
	}
	inFamilyPkg := false
	for _, suffix := range familyPkgs {
		if PathHasSuffix(obj.Pkg(), suffix) {
			inFamilyPkg = true
			break
		}
	}
	if !inFamilyPkg {
		return nil
	}
	scope := obj.Pkg().Scope()
	var members []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		m, ok := tn.Type().(*types.Named)
		if !ok || m == named {
			continue
		}
		if _, isIface := m.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(m, iface) || types.Implements(types.NewPointer(m), iface) {
			members = append(members, m)
		}
	}
	if len(members) < 2 {
		return nil
	}
	return members
}

func runFamExhaustive(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			var assert *ast.TypeAssertExpr
			switch stmt := sw.Assign.(type) {
			case *ast.ExprStmt:
				assert, _ = ast.Unparen(stmt.X).(*ast.TypeAssertExpr)
			case *ast.AssignStmt:
				if len(stmt.Rhs) == 1 {
					assert, _ = ast.Unparen(stmt.Rhs[0]).(*ast.TypeAssertExpr)
				}
			}
			if assert == nil {
				return true
			}
			tv, ok := info.Types[assert.X]
			if !ok {
				return true
			}
			named := namedOf(tv.Type)
			if named == nil || !p.Local(named.Obj().Pkg()) {
				return true
			}
			// The exhaustiveness contract binds the family's consumers —
			// compile, rewrite, analyze, eval must handle every node. The
			// defining package's own helpers (String parenthesization, NNF
			// predicates, walk pruning) subset-match by design and are
			// exempt.
			if named.Obj().Pkg() == p.Pkg.Types {
				return true
			}
			members := familyOf(named)
			if members == nil {
				return true
			}
			covered := map[*types.Named]bool{}
			var def *ast.CaseClause
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				if cc.List == nil {
					def = cc
					continue
				}
				for _, te := range cc.List {
					if id, ok := te.(*ast.Ident); ok && id.Name == "nil" {
						continue
					}
					if ctv, ok := info.Types[te]; ok {
						if m := namedOf(ctv.Type); m != nil {
							covered[m] = true
						}
					}
				}
			}
			var missing []string
			for _, m := range members {
				if !covered[m] {
					missing = append(missing, m.Obj().Name())
				}
			}
			sort.Strings(missing)
			famName := named.Obj().Pkg().Name() + "." + named.Obj().Name()
			fd := enclosingFuncDecl(p.Pkg.Files, sw)
			switch {
			case def == nil && len(missing) > 0:
				p.report(sw.Pos(), fd, "type switch over %s has no default and misses: %s", famName, strings.Join(missing, ", "))
			case def != nil && len(def.Body) == 0:
				p.report(sw.Pos(), fd, "type switch over %s has a silent (empty) default — handle or reject unknown nodes", famName)
			}
			return true
		})
	}
}

func runSentinelSwitch(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			// Collect the sentinels named in the case conditions (the
			// errors.Is arguments). Only conditions count: returning a
			// sentinel from a case body is not dispatching on it.
			named := map[*types.Var]bool{}
			var guardScope *types.Package
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, cond := range cc.List {
					ast.Inspect(cond, func(m ast.Node) bool {
						e, ok := m.(ast.Expr)
						if !ok {
							return true
						}
						if s := guardSentinelUse(info, e); s != nil {
							named[s] = true
							guardScope = s.Pkg()
							return false
						}
						return true
					})
				}
			}
			if len(named) == 0 {
				return true
			}
			var missing []string
			scope := guardScope.Scope()
			for _, name := range scope.Names() {
				v, ok := scope.Lookup(name).(*types.Var)
				if !ok || !strings.HasPrefix(name, "Err") || !v.Exported() {
					continue
				}
				if !named[v] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				p.report(sw.Pos(), enclosingFuncDecl(p.Pkg.Files, sw), "switch dispatches on guard sentinels but misses: guard.%s — the catch-all would misclassify a governed stop", strings.Join(missing, ", guard."))
			}
			return true
		})
	}
}

// strictEnums are the enum types whose switches must name every
// constant even when a default is present — dispatches like EXPLAIN
// rule rendering where the default is a formatting fallback that would
// silently mislabel a new kind. Carried over from astlint's RuleKind
// rule.
var strictEnums = map[string]string{"RuleKind": planPkg}

func runEnumSwitch(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok {
				return true
			}
			named := namedOf(tv.Type)
			if named == nil || !p.Local(named.Obj().Pkg()) {
				return true
			}
			basic, ok := named.Underlying().(*types.Basic)
			if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 || basic.Info()&types.IsBoolean != 0 {
				return true
			}
			// The enum universe: every package-scope constant declared
			// with exactly this named type.
			scope := named.Obj().Pkg().Scope()
			var constants []*types.Const
			for _, name := range scope.Names() {
				c, ok := scope.Lookup(name).(*types.Const)
				if ok && types.Identical(c.Type(), named) {
					constants = append(constants, c)
				}
			}
			if len(constants) < 2 {
				return true
			}
			covered := map[*types.Const]bool{}
			var def *ast.CaseClause
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				if cc.List == nil {
					def = cc
					continue
				}
				for _, ce := range cc.List {
					var id *ast.Ident
					switch ce := ast.Unparen(ce).(type) {
					case *ast.Ident:
						id = ce
					case *ast.SelectorExpr:
						id = ce.Sel
					}
					if id == nil {
						return true // computed case — not an enum dispatch
					}
					c, ok := info.Uses[id].(*types.Const)
					if !ok || !types.Identical(c.Type(), named) {
						return true // comparing against a variable or foreign value
					}
					covered[c] = true
				}
			}
			pkgName := named.Obj().Pkg().Name()
			var missing []string
			for _, c := range constants {
				if !covered[c] {
					missing = append(missing, pkgName+"."+c.Name())
				}
			}
			sort.Strings(missing)
			enumName := pkgName + "." + named.Obj().Name()
			fd := enclosingFuncDecl(p.Pkg.Files, sw)
			strict := false
			if suffix, ok := strictEnums[named.Obj().Name()]; ok && PathHasSuffix(named.Obj().Pkg(), suffix) {
				strict = true
			}
			switch {
			case strict && len(missing) > 0:
				p.report(sw.Pos(), fd, "switch over %s misses: %s — this enum is dispatched strictly (default or not), a new kind would be mislabeled", enumName, strings.Join(missing, ", "))
			case !strict && def == nil && len(missing) > 0:
				p.report(sw.Pos(), fd, "switch over %s has no default and misses: %s", enumName, strings.Join(missing, ", "))
			case !strict && def != nil && len(def.Body) == 0:
				p.report(sw.Pos(), fd, "switch over %s has a silent (empty) default — handle or reject unknown values", enumName)
			}
			return true
		})
	}
}

package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a relational-algebra expression. Columns are positional; a
// binary operator's output is the concatenation of its inputs' columns
// where applicable (Product, Join), or the left input's columns for
// semijoin-shaped operators.
type Expr interface {
	// Arity is the number of output columns.
	Arity() int
	// Key is a canonical string for the expression, used for shared-
	// subplan (view) caching and for test assertions. Structurally
	// equal plans have equal keys.
	Key() string
}

// Base is a reference to a database relation.
type Base struct {
	Name string
	Cols int
}

// Select filters Child by Cond (columns of Cond refer to Child's output).
type Select struct {
	Child Expr
	Cond  Cond
}

// Project projects Child onto the listed column positions (which may
// repeat or reorder columns).
type Project struct {
	Child Expr
	Cols  []int
}

// Product is the Cartesian product; output is L's columns then R's.
type Product struct {
	L, R Expr
}

// Leaves returns the leaves of the product chain e, left to right, or
// e alone when it is not a product.
func Leaves(e Expr) []Expr {
	if p, ok := e.(Product); ok {
		return append(Leaves(p.L), Leaves(p.R)...)
	}
	return []Expr{e}
}

// ProductOf is the left-deep product chain ((l₀ × l₁) × …) of leaves,
// of which there is at least one.
func ProductOf(leaves []Expr) Expr {
	e := leaves[0]
	for _, l := range leaves[1:] {
		e = Product{L: e, R: l}
	}
	return e
}

// Union, Intersect and Diff are the set operations (duplicate-
// eliminating, as in relational algebra; the SQL fragment studied in the
// paper is evaluated under set semantics).
type (
	// Union is L ∪ R.
	Union struct{ L, R Expr }
	// Intersect is L ∩ R.
	Intersect struct{ L, R Expr }
	// Diff is L − R.
	Diff struct{ L, R Expr }
)

// SemiJoin is L ⋉θ R (Anti=false) or L ▷θ R (Anti=true): the rows of L
// for which some (no) row of R satisfies Cond over the concatenated
// tuple. This is how EXISTS / NOT EXISTS subqueries compile; the
// condition's columns 0..L.Arity()-1 refer to L and the rest to R.
type SemiJoin struct {
	L, R Expr
	Cond Cond
	Anti bool
}

// UnifySemi is the unification (anti-)semijoin of Definition 4:
// L ⋉⇑ R keeps the rows of L that unify with some row of R; the anti
// version keeps those that unify with none. L and R must have equal
// arity.
type UnifySemi struct {
	L, R Expr
	Anti bool
}

// Distinct eliminates duplicate rows.
type Distinct struct {
	Child Expr
}

// Division is the derived relational-algebra operator L ÷ R ("students
// taking all courses"): the tuples x̄ over the first
// L.Arity()−R.Arity() columns of L such that x̄·r̄ ∈ L for every
// r̄ ∈ R. Fact 1 of the paper extends naive evaluation's exact
// certain-answer guarantee to positive algebra with division, provided
// the divisor R is a database relation; the certain translation imposes
// the same proviso.
type Division struct {
	L, R Expr
}

// AdomPower is adomᵏ: the k-fold Cartesian power of the active domain of
// the database. It exists only to express the translation of
// [Libkin, TODS 2016] (paper Figure 2), whose practical infeasibility
// Section 5 of the paper demonstrates — and which this reproduction
// demonstrates too (see BenchmarkFigure2LegacyTranslation).
type AdomPower struct {
	K int
}

// Arity implementations.

func (b Base) Arity() int      { return b.Cols }
func (s Select) Arity() int    { return s.Child.Arity() }
func (p Project) Arity() int   { return len(p.Cols) }
func (p Product) Arity() int   { return p.L.Arity() + p.R.Arity() }
func (u Union) Arity() int     { return u.L.Arity() }
func (i Intersect) Arity() int { return i.L.Arity() }
func (d Diff) Arity() int      { return d.L.Arity() }
func (s SemiJoin) Arity() int  { return s.L.Arity() }
func (u UnifySemi) Arity() int { return u.L.Arity() }
func (d Distinct) Arity() int  { return d.Child.Arity() }
func (d Division) Arity() int  { return d.L.Arity() - d.R.Arity() }
func (a AdomPower) Arity() int { return a.K }

// Key implementations build canonical, parenthesized forms.

func (b Base) Key() string { return b.Name }

func (s Select) Key() string {
	return "σ[" + s.Cond.String() + "](" + s.Child.Key() + ")"
}

func (p Project) Key() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = strconv.Itoa(c)
	}
	return "π[" + strings.Join(parts, ",") + "](" + p.Child.Key() + ")"
}

func (p Product) Key() string   { return "(" + p.L.Key() + " × " + p.R.Key() + ")" }
func (u Union) Key() string     { return "(" + u.L.Key() + " ∪ " + u.R.Key() + ")" }
func (i Intersect) Key() string { return "(" + i.L.Key() + " ∩ " + i.R.Key() + ")" }
func (d Diff) Key() string      { return "(" + d.L.Key() + " − " + d.R.Key() + ")" }

func (s SemiJoin) Key() string {
	op := "⋉"
	if s.Anti {
		op = "▷"
	}
	return "(" + s.L.Key() + " " + op + "[" + s.Cond.String() + "] " + s.R.Key() + ")"
}

func (u UnifySemi) Key() string {
	op := "⋉⇑"
	if u.Anti {
		op = "▷⇑"
	}
	return "(" + u.L.Key() + " " + op + " " + u.R.Key() + ")"
}

func (d Distinct) Key() string  { return "δ(" + d.Child.Key() + ")" }
func (d Division) Key() string  { return "(" + d.L.Key() + " ÷ " + d.R.Key() + ")" }
func (a AdomPower) Key() string { return fmt.Sprintf("adom^%d", a.K) }

// Children returns the direct sub-expressions of e, left to right: the
// first n entries of kids. The fixed-size array keeps generic
// traversals allocation-free.
func Children(e Expr) (kids [2]Expr, n int) {
	switch e := e.(type) {
	case Base, AdomPower:
		return kids, 0
	case Select:
		return [2]Expr{e.Child}, 1
	case Project:
		return [2]Expr{e.Child}, 1
	case Distinct:
		return [2]Expr{e.Child}, 1
	case GroupBy:
		return [2]Expr{e.Child}, 1
	case Sort:
		return [2]Expr{e.Child}, 1
	case Limit:
		return [2]Expr{e.Child}, 1
	case Product:
		return [2]Expr{e.L, e.R}, 2
	case Union:
		return [2]Expr{e.L, e.R}, 2
	case Intersect:
		return [2]Expr{e.L, e.R}, 2
	case Diff:
		return [2]Expr{e.L, e.R}, 2
	case SemiJoin:
		return [2]Expr{e.L, e.R}, 2
	case UnifySemi:
		return [2]Expr{e.L, e.R}, 2
	case Division:
		return [2]Expr{e.L, e.R}, 2
	default:
		panic(fmt.Sprintf("algebra: Children: unknown expression %T", e))
	}
}

// MapChildren rebuilds e with each direct sub-expression c replaced by
// f(c), left to right, keeping every other field. Leaves are returned
// as they are. A rewrite pass handles the operators it changes and
// hands every other one to MapChildren.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	switch e := e.(type) {
	case Base, AdomPower:
		return e
	case Select:
		e.Child = f(e.Child)
		return e
	case Project:
		e.Child = f(e.Child)
		return e
	case Distinct:
		e.Child = f(e.Child)
		return e
	case GroupBy:
		e.Child = f(e.Child)
		return e
	case Sort:
		e.Child = f(e.Child)
		return e
	case Limit:
		e.Child = f(e.Child)
		return e
	case Product:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case Union:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case Intersect:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case Diff:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case SemiJoin:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case UnifySemi:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	case Division:
		e.L = f(e.L)
		e.R = f(e.R)
		return e
	default:
		panic(fmt.Sprintf("algebra: MapChildren: unknown expression %T", e))
	}
}

// condOf returns the condition e carries: a selection's or a
// semijoin's.
func condOf(e Expr) (Cond, bool) {
	switch e := e.(type) {
	case Select:
		return e.Cond, true
	case SemiJoin:
		return e.Cond, true
	}
	return nil, false
}

// Walk calls f on e and all of its descendants, pre-order. It also
// descends into scalar subqueries referenced from selection and
// semijoin conditions, before the operator's children. It allocates
// nothing of its own.
func Walk(e Expr, f func(Expr)) {
	f(e)
	if c, ok := condOf(e); ok {
		AnyOperand(c, func(o Operand) bool {
			if s, ok := o.(Scalar); ok {
				Walk(s.Sub, f)
			}
			return false
		})
	}
	kids, n := Children(e)
	for _, k := range kids[:n] {
		Walk(k, f)
	}
}

// Conds returns every condition appearing in the expression tree
// (selection and semijoin conditions, including inside scalar
// subqueries), in pre-order.
func Conds(e Expr) []Cond {
	var out []Cond
	Walk(e, func(sub Expr) {
		if c, ok := condOf(sub); ok {
			out = append(out, c)
		}
	})
	return out
}

// SizeAtMost reports whether e has at most limit nodes, counting its
// operators, every node of their conditions and, recursively, the
// nodes of scalar subqueries. It stops counting once the limit is
// passed, so sizing a large tree costs O(limit), and it allocates
// nothing.
func SizeAtMost(e Expr, limit int) bool {
	return spend(e, &limit)
}

// spend charges e's nodes against *budget, reporting false as soon as
// the budget runs out.
func spend(e Expr, budget *int) bool {
	*budget--
	if *budget < 0 {
		return false
	}
	if c, ok := condOf(e); ok && anyNode(c, func(n Cond) bool {
		*budget--
		ops, k := operands(n)
		for _, o := range ops[:k] {
			if s, ok := o.(Scalar); ok && !spend(s.Sub, budget) {
				return true
			}
		}
		return *budget < 0
	}) {
		return false
	}
	kids, n := Children(e)
	for _, k := range kids[:n] {
		if !spend(k, budget) {
			return false
		}
	}
	return true
}

// Format renders the expression as an indented tree, for debugging and
// EXPLAIN-style output.
func Format(e Expr) string {
	var b strings.Builder
	format(&b, e, 0)
	return b.String()
}

func format(b *strings.Builder, e Expr, depth int) {
	indent := strings.Repeat("  ", depth)
	switch e := e.(type) {
	case Base:
		fmt.Fprintf(b, "%sBase %s/%d\n", indent, e.Name, e.Cols)
	case AdomPower:
		fmt.Fprintf(b, "%sAdom^%d\n", indent, e.K)
	case Select:
		fmt.Fprintf(b, "%sSelect %s\n", indent, e.Cond)
		format(b, e.Child, depth+1)
	case Project:
		fmt.Fprintf(b, "%sProject %v\n", indent, e.Cols)
		format(b, e.Child, depth+1)
	case Product:
		fmt.Fprintf(b, "%sProduct\n", indent)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case Union:
		fmt.Fprintf(b, "%sUnion\n", indent)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case Intersect:
		fmt.Fprintf(b, "%sIntersect\n", indent)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case Diff:
		fmt.Fprintf(b, "%sDiff\n", indent)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case SemiJoin:
		name := "SemiJoin"
		if e.Anti {
			name = "AntiJoin"
		}
		fmt.Fprintf(b, "%s%s %s\n", indent, name, e.Cond)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case UnifySemi:
		name := "UnifySemiJoin"
		if e.Anti {
			name = "UnifyAntiJoin"
		}
		fmt.Fprintf(b, "%s%s\n", indent, name)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case Distinct:
		fmt.Fprintf(b, "%sDistinct\n", indent)
		format(b, e.Child, depth+1)
	case Division:
		fmt.Fprintf(b, "%sDivision\n", indent)
		format(b, e.L, depth+1)
		format(b, e.R, depth+1)
	case GroupBy:
		fmt.Fprintf(b, "%sGroupBy keys=%v aggs=%v\n", indent, e.Keys, e.Aggs)
		format(b, e.Child, depth+1)
	case Sort:
		fmt.Fprintf(b, "%sSort %v\n", indent, e.Keys)
		format(b, e.Child, depth+1)
	case Limit:
		fmt.Fprintf(b, "%sLimit %d\n", indent, e.N)
		format(b, e.Child, depth+1)
	default:
		fmt.Fprintf(b, "%s%T?\n", indent, e)
	}
}

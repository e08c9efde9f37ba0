// Package algebra defines the relational-algebra operator tree and the
// selection-condition language used throughout the system.
//
// Conditions are Boolean combinations of comparison atoms over the
// columns of (concatenated) tuples, constant literals, and scalar
// aggregate subqueries; the atoms are =, ≠, <, ≤, >, ≥, LIKE, and the
// const(A)/null(A) predicates of the paper (SQL's IS NOT NULL / IS
// NULL). Columns are positional: condition trees reference the columns
// of their operator's input by index, with a binary operator's right
// input following the left input's columns.
package algebra

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

import "certsql/internal/value"

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// Negate returns the complementary operator (=↔≠, <↔≥, ≤↔>).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	default: // GE
		return LT
	}
}

// Flip returns the operator with swapped operands (a op b ≡ b flip(op) a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

// AggFunc is an aggregate function usable in scalar subqueries.
type AggFunc uint8

// Aggregate functions.
const (
	AggAvg AggFunc = iota
	AggSum
	AggCount
	AggMin
	AggMax
)

// String renders the aggregate's SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggAvg:
		return "AVG"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	default:
		return "MAX"
	}
}

// Operand is the operand of a comparison atom: a column reference, a
// literal, or a scalar aggregate subquery.
type Operand interface {
	isOperand()
	String() string
}

// Col references the column at position Idx of the input tuple.
type Col struct{ Idx int }

// Lit is a constant (or, exceptionally, marked-null) literal.
type Lit struct{ Val value.Value }

// Scalar is an uncorrelated scalar aggregate subquery — the paper treats
// these as black-box constants (Section 7, "Translating additional
// features"). The evaluator computes Agg over column Col of Sub's result
// once per query execution.
type Scalar struct {
	Sub Expr
	Agg AggFunc
	Col int
}

func (Col) isOperand()    {}
func (Lit) isOperand()    {}
func (Scalar) isOperand() {}

// String renders the column as #idx. These renderers back the
// evaluator's subplan-cache keys, so they avoid fmt: keying re-renders
// subtrees at every recursion level and the reflective path dominated
// execution profiles.
func (c Col) String() string { return "#" + strconv.Itoa(c.Idx) }

// String renders the literal.
func (l Lit) String() string { return l.Val.String() }

// String renders the scalar subquery compactly.
func (s Scalar) String() string {
	return "scalar[" + s.Agg.String() + "(#" + strconv.Itoa(s.Col) + ") of " + s.Sub.Key() + "]"
}

// Cond is a selection condition.
type Cond interface {
	isCond()
	String() string
}

// TrueCond and FalseCond are the constant conditions.
type (
	// TrueCond always holds.
	TrueCond struct{}
	// FalseCond never holds.
	FalseCond struct{}
)

// Cmp is a comparison atom L op R.
type Cmp struct {
	Op   CmpOp
	L, R Operand
}

// Like is a LIKE atom (or NOT LIKE when Negated).
type Like struct {
	Operand Operand
	Pattern Operand
	Negated bool
}

// NullTest is null(A) (IS NULL) or, when Negated, const(A) (IS NOT NULL).
type NullTest struct {
	Operand Operand
	Negated bool
}

// And is an n-ary conjunction. An empty And is true.
type And struct{ Conds []Cond }

// Or is an n-ary disjunction. An empty Or is false.
type Or struct{ Conds []Cond }

// Not is negation; NNF pushes it down to atoms.
type Not struct{ C Cond }

func (TrueCond) isCond()  {}
func (FalseCond) isCond() {}
func (Cmp) isCond()       {}
func (Like) isCond()      {}
func (NullTest) isCond()  {}
func (And) isCond()       {}
func (Or) isCond()        {}
func (Not) isCond()       {}

// String implementations render conditions in a SQL-ish syntax.

func (TrueCond) String() string  { return "true" }
func (FalseCond) String() string { return "false" }

func (c Cmp) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

func (l Like) String() string {
	if l.Negated {
		return l.Operand.String() + " NOT LIKE " + l.Pattern.String()
	}
	return l.Operand.String() + " LIKE " + l.Pattern.String()
}

func (n NullTest) String() string {
	if n.Negated {
		return "const(" + n.Operand.String() + ")"
	}
	return "null(" + n.Operand.String() + ")"
}

func (a And) String() string { return joinConds(a.Conds, " AND ", "true") }
func (o Or) String() string  { return joinConds(o.Conds, " OR ", "false") }

func joinConds(cs []Cond, sep, empty string) string {
	if len(cs) == 0 {
		return empty
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		s := c.String()
		switch c.(type) {
		case And, Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func (n Not) String() string { return "NOT (" + n.C.String() + ")" }

// NewAnd builds a conjunction, flattening nested Ands and simplifying
// constants.
func NewAnd(cs ...Cond) Cond {
	var flat []Cond
	for _, c := range cs {
		switch c := c.(type) {
		case TrueCond:
		case FalseCond:
			return FalseCond{}
		case And:
			flat = append(flat, c.Conds...)
		default:
			flat = append(flat, c)
		}
	}
	switch len(flat) {
	case 0:
		return TrueCond{}
	case 1:
		return flat[0]
	}
	return And{Conds: flat}
}

// NewOr builds a disjunction, flattening nested Ors and simplifying
// constants.
func NewOr(cs ...Cond) Cond {
	var flat []Cond
	for _, c := range cs {
		switch c := c.(type) {
		case FalseCond:
		case TrueCond:
			return TrueCond{}
		case Or:
			flat = append(flat, c.Conds...)
		default:
			flat = append(flat, c)
		}
	}
	switch len(flat) {
	case 0:
		return FalseCond{}
	case 1:
		return flat[0]
	}
	return Or{Conds: flat}
}

// NNF pushes negations down to the atoms, returning an equivalent
// condition in negation normal form. Negated comparison atoms flip their
// operator; negated LIKE and null tests toggle their Negated flag. The
// result contains no Not nodes.
//
// Note the equivalence ¬(A = B) ≡ A ≠ B used here is the one from the
// paper's condition language (Section 2): conditions are closed under
// negation with negation propagated to atoms. Under SQL 3VL this maps
// unknown to unknown, which is exactly Kleene negation.
func NNF(c Cond) Cond {
	return nnf(c, false)
}

func nnf(c Cond, neg bool) Cond {
	switch c := c.(type) {
	case TrueCond:
		if neg {
			return FalseCond{}
		}
		return c
	case FalseCond:
		if neg {
			return TrueCond{}
		}
		return c
	case Cmp:
		if neg {
			return Cmp{Op: c.Op.Negate(), L: c.L, R: c.R}
		}
		return c
	case Like:
		if neg {
			return Like{Operand: c.Operand, Pattern: c.Pattern, Negated: !c.Negated}
		}
		return c
	case NullTest:
		if neg {
			return NullTest{Operand: c.Operand, Negated: !c.Negated}
		}
		return c
	case Not:
		return nnf(c.C, !neg)
	case And:
		parts := make([]Cond, len(c.Conds))
		for i, sub := range c.Conds {
			parts[i] = nnf(sub, neg)
		}
		if neg {
			return NewOr(parts...)
		}
		return NewAnd(parts...)
	case Or:
		parts := make([]Cond, len(c.Conds))
		for i, sub := range c.Conds {
			parts[i] = nnf(sub, neg)
		}
		if neg {
			return NewAnd(parts...)
		}
		return NewOr(parts...)
	default:
		panic(fmt.Sprintf("algebra: nnf: unknown condition %T", c))
	}
}

// NNFIsIdentity reports whether NNF(c) would return c structurally
// unchanged: no Not nodes anywhere, and every And/Or already flat
// (two or more children, none of which is a same-kind connective or a
// constant that NewAnd/NewOr would simplify away). Evaluation-time
// callers use it to skip rebuilding conditions that the translation
// pipeline already emitted in normal form — the common case — since
// the rebuild allocates a full copy of the condition tree on every
// execution.
func NNFIsIdentity(c Cond) bool {
	switch c := c.(type) {
	case TrueCond, FalseCond, Cmp, Like, NullTest:
		return true
	case Not:
		return false
	case And:
		if len(c.Conds) < 2 {
			return false
		}
		for _, sub := range c.Conds {
			switch sub.(type) {
			case And, TrueCond, FalseCond:
				return false
			}
			if !NNFIsIdentity(sub) {
				return false
			}
		}
		return true
	case Or:
		if len(c.Conds) < 2 {
			return false
		}
		for _, sub := range c.Conds {
			switch sub.(type) {
			case Or, TrueCond, FalseCond:
				return false
			}
			if !NNFIsIdentity(sub) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// UsesColBelow reports whether c references any column with index < n.
// Scalar subqueries are ignored: they are uncorrelated by construction.
// This is the allocation-free form of the correlation test
// `min(ColsUsed(c)) < n` that the semijoin executor runs per operator.
func UsesColBelow(c Cond, n int) bool {
	return AnyOperand(c, func(o Operand) bool {
		col, ok := o.(Col)
		return ok && col.Idx < n
	})
}

// HasScalar reports whether some operand of c is a scalar subquery.
func HasScalar(c Cond) bool {
	return AnyOperand(c, func(o Operand) bool {
		_, ok := o.(Scalar)
		return ok
	})
}

// anyNode reports whether f holds for some node of c. It visits the
// nodes pre-order — a connective before its operands, left to right —
// and stops at the first that holds. AnyOperand, Atoms and SizeAtMost
// are built on it.
func anyNode(c Cond, f func(Cond) bool) bool {
	if f(c) {
		return true
	}
	switch c := c.(type) {
	case TrueCond, FalseCond, Cmp, Like, NullTest:
		return false
	case And:
		for _, sub := range c.Conds {
			if anyNode(sub, f) {
				return true
			}
		}
		return false
	case Or:
		for _, sub := range c.Conds {
			if anyNode(sub, f) {
				return true
			}
		}
		return false
	case Not:
		return anyNode(c.C, f)
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", c))
	}
}

// operands returns the operands of an atom, left to right: the first n
// entries of ops. Connectives and constants have none.
func operands(c Cond) (ops [2]Operand, n int) {
	switch c := c.(type) {
	case Cmp:
		return [2]Operand{c.L, c.R}, 2
	case Like:
		return [2]Operand{c.Operand, c.Pattern}, 2
	case NullTest:
		return [2]Operand{c.Operand}, 1
	}
	return ops, 0
}

// AnyOperand reports whether f holds for some operand of c's atoms,
// visited left to right; it stops at the first that does. A scalar
// subquery is one operand: its body is not entered.
func AnyOperand(c Cond, f func(Operand) bool) bool {
	return anyNode(c, func(n Cond) bool {
		ops, k := operands(n)
		for _, o := range ops[:k] {
			if f(o) {
				return true
			}
		}
		return false
	})
}

// Atoms calls f on every atom of c — comparison, LIKE and null test —
// left to right. Constants are not atoms. A Not is looked through
// without flipping the atoms under it: callers that care about
// polarity pass NNF(c).
func Atoms(c Cond, f func(atom Cond)) {
	anyNode(c, func(n Cond) bool {
		if _, k := operands(n); k > 0 {
			f(n)
		}
		return false
	})
}

// Conjuncts returns the top-level conjuncts of c (c itself when it is
// not a conjunction).
func Conjuncts(c Cond) []Cond {
	if a, ok := c.(And); ok {
		return a.Conds
	}
	if _, ok := c.(TrueCond); ok {
		return nil
	}
	return []Cond{c}
}

// Disjuncts returns the top-level disjuncts of c.
func Disjuncts(c Cond) []Cond {
	if o, ok := c.(Or); ok {
		return o.Conds
	}
	if _, ok := c.(FalseCond); ok {
		return nil
	}
	return []Cond{c}
}

// DNF converts an NNF condition into disjunctive normal form: a
// disjunction of conjunctions of atoms. Exponential in the worst case;
// the translated queries in this study have a handful of disjuncts.
// The input must already be in NNF (no Not nodes).
func DNF(c Cond) Cond {
	switch c := c.(type) {
	case And:
		// Distribute: DNF(a) × DNF(b) × …
		cubes := [][]Cond{nil} // start with one empty conjunction
		for _, sub := range c.Conds {
			d := DNF(sub)
			var next [][]Cond
			for _, disj := range Disjuncts(d) {
				add := Conjuncts(disj)
				for _, cube := range cubes {
					merged := make([]Cond, 0, len(cube)+len(add))
					merged = append(merged, cube...)
					merged = append(merged, add...)
					next = append(next, merged)
				}
			}
			cubes = next
		}
		out := make([]Cond, 0, len(cubes))
		for _, cube := range cubes {
			out = append(out, NewAnd(cube...))
		}
		return NewOr(out...)
	case Or:
		parts := make([]Cond, len(c.Conds))
		for i, sub := range c.Conds {
			parts[i] = DNF(sub)
		}
		return NewOr(parts...)
	case Not:
		panic("algebra: DNF requires NNF input (call NNF first)")
	default:
		return c
	}
}

// MapOperand applies f to every column index in the operand.
func MapOperand(o Operand, f func(int) int) Operand {
	switch o := o.(type) {
	case Col:
		return Col{Idx: f(o.Idx)}
	default:
		return o
	}
}

// MapOperands returns a copy of c with every atom operand o replaced by
// f(o), left to right; the Boolean structure is kept as it is.
func MapOperands(c Cond, f func(Operand) Operand) Cond {
	switch c := c.(type) {
	case TrueCond, FalseCond:
		return c
	case Cmp:
		c.L = f(c.L)
		c.R = f(c.R)
		return c
	case Like:
		c.Operand = f(c.Operand)
		c.Pattern = f(c.Pattern)
		return c
	case NullTest:
		c.Operand = f(c.Operand)
		return c
	case And:
		return And{Conds: mapOperandsAll(c.Conds, f)}
	case Or:
		return Or{Conds: mapOperandsAll(c.Conds, f)}
	case Not:
		return Not{C: MapOperands(c.C, f)}
	default:
		panic(fmt.Sprintf("algebra: MapOperands: unknown condition %T", c))
	}
}

func mapOperandsAll(cs []Cond, f func(Operand) Operand) []Cond {
	out := make([]Cond, len(cs))
	for i, sub := range cs {
		out[i] = MapOperands(sub, f)
	}
	return out
}

// MapCols returns a copy of c with every column index rewritten by f.
// Scalar subqueries are left untouched (they are uncorrelated).
func MapCols(c Cond, f func(int) int) Cond {
	return MapOperands(c, func(o Operand) Operand { return MapOperand(o, f) })
}

// ColsUsed returns the sorted set of column indexes referenced by c.
func ColsUsed(c Cond) []int {
	var out []int
	AnyOperand(c, func(o Operand) bool {
		if col, ok := o.(Col); ok {
			out = append(out, col.Idx)
		}
		return false
	})
	slices.Sort(out)
	return slices.Compact(out)
}

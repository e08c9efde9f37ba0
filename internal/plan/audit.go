package plan

import (
	"fmt"

	"certsql/internal/algebra"
)

// AuditCost checks the internal consistency invariants of a costed
// plan tree, recursively: estimates are finite and non-negative, a
// node's cost covers the sum of its children's costs (cost is
// cumulative, hence monotone in subtree cardinality), and a node's
// cost covers its own output cardinality (emitting a row costs at
// least one unit). difftest runs this over every planned query.
func AuditCost(n *ExplainNode) error {
	if n == nil {
		return nil
	}
	if n.EstRows < 0 || n.EstCost < 0 {
		return fmt.Errorf("plan: %s: negative estimate (rows=%v cost=%v)", n.Op, n.EstRows, n.EstCost)
	}
	if n.EstRows > 1e300 || n.EstCost > 1e300 {
		return fmt.Errorf("plan: %s: non-finite estimate (rows=%v cost=%v)", n.Op, n.EstRows, n.EstCost)
	}
	childCost := 0.0
	for _, c := range n.Children {
		if err := AuditCost(c); err != nil {
			return err
		}
		childCost += c.EstCost
	}
	// Allow a whisker of float slack on the comparisons.
	const slack = 1e-6
	if n.EstCost+slack < childCost {
		return fmt.Errorf("plan: %s: cost %v below children's %v", n.Op, n.EstCost, childCost)
	}
	if n.EstCost+slack < n.EstRows {
		return fmt.Errorf("plan: %s: cost %v below own cardinality %v", n.Op, n.EstCost, n.EstRows)
	}
	return nil
}

// AuditConds checks that a rewrite invented no predicates: every
// atomic comparison in the optimized plan's conditions must appear in
// the original plan, up to NNF, column renumbering (pushdown remaps
// positions) and polarity (anti-split negates null tests). Atoms are
// compared by shape: operator and operand structure with column
// positions wildcarded.
func AuditConds(orig, opt algebra.Expr) error {
	have := map[string]bool{}
	for _, a := range condAtoms(orig) {
		have[a] = true
	}
	for _, a := range condAtoms(opt) {
		if !have[a] {
			return fmt.Errorf("plan: rewritten plan contains atom %q absent from the original", a)
		}
	}
	return nil
}

// condAtoms collects the atom shapes of every condition in e,
// including inside scalar subqueries.
func condAtoms(e algebra.Expr) []string {
	var atoms []string
	for _, c := range algebra.Conds(e) {
		algebra.Atoms(algebra.NNF(c), func(a algebra.Cond) {
			atoms = append(atoms, atomShape(a))
		})
	}
	return atoms
}

// atomShape renders an atom with its operands' shapes (see opShape).
func atomShape(c algebra.Cond) string {
	switch c := c.(type) {
	case algebra.Cmp:
		return "cmp:" + c.Op.String() + "(" + opShape(c.L) + "," + opShape(c.R) + ")"
	case algebra.Like:
		return "like(" + opShape(c.Operand) + "," + opShape(c.Pattern) + ")"
	case algebra.NullTest:
		return "null(" + opShape(c.Operand) + ")"
	default:
		panic(fmt.Sprintf("plan: atomShape: %T is not an atom", c))
	}
}

// opShape renders an operand with column positions wildcarded, so
// pushdown's renumbering does not disturb the comparison.
func opShape(o algebra.Operand) string {
	switch o := o.(type) {
	case algebra.Col:
		return "#"
	case algebra.Lit:
		return "lit:" + o.Val.String()
	case algebra.Scalar:
		return "scalar"
	default:
		return "?"
	}
}

package plan

import (
	"fmt"
	"strconv"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/eval"
)

// ExplainNode is one operator of the costed plan tree surfaced by
// EXPLAIN: the operator, its condition or column detail, the planner's
// cardinality and cost estimates, and strategy/hint annotations.
type ExplainNode struct {
	Op       string
	Detail   string
	EstRows  float64
	EstCost  float64
	Notes    []string
	Children []*ExplainNode
}

// Render returns the deterministic indented tree used by golden
// EXPLAIN tests.
func (n *ExplainNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *ExplainNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" [")
		b.WriteString(n.Detail)
		b.WriteString("]")
	}
	fmt.Fprintf(b, " (rows=%s cost=%s)", fnum(n.EstRows), fnum(n.EstCost))
	if len(n.Notes) > 0 {
		b.WriteString(" {")
		b.WriteString(strings.Join(n.Notes, ", "))
		b.WriteString("}")
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// fnum renders an estimate with 4 significant digits, deterministically.
func fnum(f float64) string {
	return strconv.FormatFloat(f, 'g', 4, 64)
}

// ExplainText renders the whole plan: a header with total cost, the
// fired rules, the premises, and the costed operator tree.
func (r *Result) ExplainText() string {
	var b strings.Builder
	if r.Explain != nil {
		fmt.Fprintf(&b, "plan (cost=%s rows=%s)\n", fnum(r.Explain.EstCost), fnum(r.Explain.EstRows))
	}
	names := make([]string, len(r.Fired))
	for i, k := range r.Fired {
		names[i] = k.String()
	}
	if len(names) > 0 {
		b.WriteString("rules: " + strings.Join(names, ", ") + "\n")
	} else {
		b.WriteString("rules: (none)\n")
	}
	if len(r.Premises) > 0 {
		ps := make([]string, len(r.Premises))
		for i, p := range r.Premises {
			ps[i] = p.String()
		}
		b.WriteString("premises: " + strings.Join(ps, ", ") + "\n")
	}
	if r.Explain != nil {
		b.WriteString(r.Explain.Render())
	}
	return b.String()
}

// describe builds the costed EXPLAIN tree for e, annotating semijoins
// with their strategy and any execution hints.
func (o *optimizer) describe(e algebra.Expr, hints *eval.PlanHints) *ExplainNode {
	est := o.estimate(e)
	n := &ExplainNode{EstRows: est.rows, EstCost: est.cost}
	switch x := e.(type) {
	case algebra.Base:
		n.Op, n.Detail = "scan", x.Name
	case algebra.Select:
		if isProductChain(x.Child) {
			n.Op, n.Detail = "join-block", x.Cond.String()
			for _, leaf := range flattenProduct(x.Child) {
				n.Children = append(n.Children, o.describe(leaf, hints))
			}
			return n
		}
		n.Op, n.Detail = "select", x.Cond.String()
	case algebra.Project:
		cols := make([]string, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = strconv.Itoa(c)
		}
		n.Op, n.Detail = "project", strings.Join(cols, ",")
	case algebra.Product:
		n.Op = "product"
	case algebra.Union:
		n.Op = "union"
	case algebra.Intersect:
		n.Op = "intersect"
	case algebra.Diff:
		n.Op = "diff"
	case algebra.SemiJoin:
		n.Op = "semijoin"
		if x.Anti {
			n.Op = "antijoin"
		}
		n.Detail = x.Cond.String()
		n.Notes = append(n.Notes, "strategy="+semiStrategy(x))
		if hints != nil && hints.Semi != nil {
			if h, ok := hints.Semi[x.Key()]; ok {
				if h.SlimVerify {
					n.Notes = append(n.Notes, "slim-verify")
				}
				if h.BuildDistinct > 0 {
					n.Notes = append(n.Notes, "presize="+strconv.FormatInt(h.BuildDistinct, 10))
				}
				if h.FuseBuild {
					n.Notes = append(n.Notes, "fuse-build")
				}
			}
		}
	case algebra.UnifySemi:
		n.Op = "unify-semijoin"
		if x.Anti {
			n.Op = "unify-antijoin"
		}
	case algebra.Distinct:
		n.Op = "distinct"
	case algebra.Division:
		n.Op = "division"
	case algebra.AdomPower:
		n.Op, n.Detail = "adom-power", strconv.Itoa(x.K)
	case algebra.GroupBy:
		parts := make([]string, 0, len(x.Keys)+len(x.Aggs))
		for _, k := range x.Keys {
			parts = append(parts, "#"+strconv.Itoa(k))
		}
		for _, a := range x.Aggs {
			parts = append(parts, a.String())
		}
		n.Op, n.Detail = "group-by", strings.Join(parts, ",")
	case algebra.Sort:
		n.Op = "sort"
	case algebra.Limit:
		n.Op, n.Detail = "limit", strconv.Itoa(x.N)
	default:
		n.Op = fmt.Sprintf("%T", e)
	}
	kids, k := algebra.Children(e)
	for _, kid := range kids[:k] {
		n.Children = append(n.Children, o.describe(kid, hints))
	}
	return n
}

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

// skippedNote marks a subtree expected never to run (skipsLeft); its
// parent's cost does not include it. A view-cache hit is a leaf,
// "cached" with the subplan's view key, priced at its rows.
const skippedNote = "skipped"

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
// fired rules, and the costed operator tree.
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
	if r.Explain != nil {
		b.WriteString(r.Explain.Render())
	}
	return b.String()
}

// describeRead sets c, e's node, to the rows a selection with null-test
// groups reads of it (nullRead, e's columns from off) and returns the
// access note, in e's columns; none for a full scan.
func (d *describer) describeRead(c *ExplainNode, e algebra.Expr, groups [][]int, off int) []string {
	read, g, ok := d.nullRead(e, groups, off)
	if !ok {
		return nil
	}
	c.EstRows, c.EstCost = read.rows, read.cost
	local := make([]int, len(g))
	for i, col := range g {
		local[i] = col - off
	}
	return []string{"access=" + eval.NullsAccess(local)}
}

// describe builds the costed EXPLAIN tree for e, annotating semijoins
// with their strategy and any execution hints. Nodes are described in
// evaluation order, so a subplan drained before shows as the view-cache
// hit it is (cached).
func (d *describer) describe(e algebra.Expr, hints *eval.PlanHints) *ExplainNode {
	if c := d.cached(e); c != nil {
		return c
	}
	est := d.estimate(e)
	n := &ExplainNode{EstRows: est.rows, EstCost: est.cost}
	var h eval.SemiHint
	switch x := e.(type) {
	case algebra.Base:
		n.Op, n.Detail = "scan", x.Name
	case algebra.Select:
		if isProductChain(x.Child) {
			n.Op, n.Detail = "join-block", x.Cond.String()
			groups, off := algebra.NullScans(x.Cond), 0
			leaves := algebra.Leaves(x.Child)
			jb := eval.ClassifyJoinBlock(arities(leaves), x.Cond)
			for i, leaf := range leaves {
				c := d.cached(jb.Leaf(i, leaf))
				if c == nil {
					c = d.describe(leaf, hints)
					c.Notes = append(c.Notes, d.describeRead(c, leaf, groups, off)...)
				}
				n.Children = append(n.Children, c)
				off += leaf.Arity()
			}
			return n
		}
		n.Op, n.Detail = "select", x.Cond.String()
		c := d.describe(x.Child, hints)
		n.Notes, n.Children = d.describeRead(c, x.Child, algebra.NullScans(x.Cond), 0), []*ExplainNode{c}
		return n
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
		strategy := semiStrategy(x)
		shortCircuit := strategy == "short-circuit"
		n.Notes = append(n.Notes, "strategy="+strategy)
		if hints != nil && hints.Semi != nil {
			h = hints.Semi[x.Key()]
			if h.SlimVerify {
				n.Notes = append(n.Notes, "slim-verify")
			}
			if h.FuseBuild {
				n.Notes = append(n.Notes, "fuse-build")
			}
		}
		n.Children = []*ExplainNode{d.describe(x.L, hints), d.describeBuild(x, h, hints)}
		if shortCircuit && skipsLeft(x, n.Children[1].EstRows) {
			n.Children[0].Notes = append(n.Children[0].Notes, skippedNote)
		}
		return n
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
		n.Children = append(n.Children, d.describe(kid, hints))
	}
	return n
}

// describeBuild describes a semijoin's build side, split as h says: the
// lowering splits only where the probe side, described first, drains
// the cached part. A split build is read as its two parts, so it is
// priced as their sum.
func (d *describer) describeBuild(sj algebra.SemiJoin, h eval.SemiHint, hints *eval.PlanHints) *ExplainNode {
	s := h.Split
	if s == nil {
		return d.describe(sj.R, hints)
	}
	base := s.Cached.Child.(algebra.Base)
	read, _, _ := d.nullRead(base, [][]int{s.Nulls}, 0)
	nulls := &ExplainNode{Op: "scan", Detail: base.Name, EstRows: min(read.rows, d.estimate(base).rows),
		Notes: []string{"access=" + eval.NullsAccess(s.Nulls)}}
	nulls.EstCost = nulls.EstRows + 1
	cached := d.hit(s.Cached, eval.ViewKey(s.Cached))
	return &ExplainNode{Op: "select", Detail: sj.R.(algebra.Select).Cond.String(),
		EstRows: cached.EstRows + nulls.EstRows, EstCost: cached.EstCost + nulls.EstCost,
		Notes: []string{"split"}, Children: []*ExplainNode{cached, nulls}}
}

// cached returns the node of a view-cache hit on e when the walk in
// evaluation order has drained e before, and otherwise records e as
// drained. Stored relations are read, not drained.
func (d *describer) cached(e algebra.Expr) *ExplainNode {
	if _, ok := e.(algebra.Base); ok || d.drained == nil {
		return nil
	}
	k := eval.ViewKey(e)
	if k == "" || !d.drained[k] {
		d.drained[k] = k != ""
		return nil
	}
	return d.hit(e, k)
}

// hit is the node of a view-cache hit on e, whose key is k: its rows,
// read from the cache.
func (d *describer) hit(e algebra.Expr, k string) *ExplainNode {
	rows := d.estimate(e).rows
	return &ExplainNode{Op: "cached", Detail: k, EstRows: rows, EstCost: rows}
}

package eval

import (
	"strings"

	"certsql/internal/algebra"
)

// Shape is a plan-time annotation of an expression's iterator tree:
// which subtrees stream as pipelines and which buffer. It is pure
// description — evaluation never depends on it for correctness — so a
// cached plan can carry the shape of each of its translations and a
// prepared execution skips re-deriving pipeline boundaries (notably
// flattening product chains to count join-block leaves — the one
// decision streamable reads from it). A node whose Op does not match
// the live expression is ignored and re-derived on the fly.
type Shape struct {
	// Op is the operator name (see opName); used to validate the
	// annotation against the expression it is applied to.
	Op string
	// Stream reports that the node runs as an iterator pipeline under
	// default executor toggles. With NoHashJoin set the annotation is
	// ignored (multi-leaf selections stream differently there).
	Stream bool
	// Kids are the children in buildIter recursion order: [Child] for
	// unary operators, [L, R] for binary ones, nil for leaves and for
	// buffered subtrees whose bodies re-derive locally.
	Kids []*Shape
}

// kid returns the i-th child annotation, nil when absent.
func (sh *Shape) kid(i int) *Shape {
	if sh == nil || i >= len(sh.Kids) {
		return nil
	}
	return sh.Kids[i]
}

// String renders the shape compactly, streaming nodes marked with "~".
func (sh *Shape) String() string {
	if sh == nil {
		return ""
	}
	var b strings.Builder
	sh.render(&b)
	return b.String()
}

func (sh *Shape) render(b *strings.Builder) {
	if sh.Stream {
		b.WriteByte('~')
	}
	b.WriteString(sh.Op)
	if len(sh.Kids) == 0 {
		return
	}
	b.WriteByte('(')
	for i, k := range sh.Kids {
		if i > 0 {
			b.WriteByte(' ')
		}
		k.render(b)
	}
	b.WriteByte(')')
}

// ShapeOf derives the iterator tree of e under default executor
// toggles (hash joins enabled). Plans cache the result; see
// Options.Shape.
func ShapeOf(e algebra.Expr) *Shape {
	sh := &Shape{Op: opName(e)}
	switch e := e.(type) { // astlint:partial — buffered operators keep Stream false
	case algebra.Base:
		sh.Stream = true
	case algebra.Select:
		sh.Stream = len(flattenProduct(e.Child)) < 2
		if sh.Stream {
			sh.Kids = []*Shape{ShapeOf(e.Child)}
		}
	case algebra.Project:
		sh.Stream = true
		sh.Kids = []*Shape{ShapeOf(e.Child)}
	case algebra.Limit:
		sh.Stream = true
		sh.Kids = []*Shape{ShapeOf(e.Child)}
	case algebra.Distinct:
		sh.Stream = true
		sh.Kids = []*Shape{ShapeOf(e.Child)}
	case algebra.Union:
		sh.Stream = true
		sh.Kids = []*Shape{ShapeOf(e.L), ShapeOf(e.R)}
	case algebra.SemiJoin:
		sh.Stream = true
		sh.Kids = []*Shape{ShapeOf(e.L), ShapeOf(e.R)}
	}
	return sh
}

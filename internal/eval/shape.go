package eval

import "certsql/internal/algebra"

// Shape, ShapeOf and Options.Shape are not read by the executor, which
// works out pipeline boundaries from the expression itself (see
// streamable). They are kept only because the benchmark module (bench/)
// compiles against them.
type Shape struct{}

// ShapeOf returns nil; see Shape.
func ShapeOf(algebra.Expr) *Shape { return nil }

package eval

import "certsql/internal/table"

// Product runs the buffered product body on two materialized tables.
func (ev *Evaluator) Product(l, r *table.Table) (*table.Table, error) { return ev.product(l, r) }

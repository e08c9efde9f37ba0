// Package guard is the corpus double of the engine's governor: just
// enough surface for the vetcert rules to bind to — the Governor's
// governance methods and the exported sentinel taxonomy.
package guard

import "errors"

type Limits struct{}

type Governor struct{}

func (g *Governor) Poll(op string) error                { return nil }
func (g *Governor) CheckRows(op string, n int) error    { return nil }
func (g *Governor) ChargeCost(op string, n int64) error { return nil }
func (g *Governor) ChargeMem(op string, n int64) error  { return nil }
func (g *Governor) ReleaseMem(n int64)                  {}
func (g *Governor) Fault(site string) error             { return nil }

var (
	ErrBudget     = errors.New("budget")
	ErrRowBudget  = errors.New("rows")
	ErrMemBudget  = errors.New("mem")
	ErrCostBudget = errors.New("cost")
	ErrCanceled   = errors.New("canceled")
	ErrDeadline   = errors.New("deadline")
)

// Is compares by identity: the taxonomy's own package is excluded from
// sentinelhygiene by design, so this must produce no finding.
func Is(err error) bool { return err == ErrBudget || err == ErrCanceled }

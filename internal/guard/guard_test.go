package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSentinelMatching(t *testing.T) {
	for _, s := range []error{ErrRowBudget, ErrMemBudget, ErrCostBudget} {
		le := &LimitError{Sentinel: s, Op: "op"}
		if !errors.Is(le, s) {
			t.Errorf("LimitError{%v} should match its own sentinel", s)
		}
		if !errors.Is(le, ErrBudget) {
			t.Errorf("LimitError{%v} should match the grouping ErrBudget", s)
		}
	}
	for _, s := range []error{ErrCanceled, ErrDeadline} {
		le := &LimitError{Sentinel: s, Op: "op"}
		if !errors.Is(le, s) {
			t.Errorf("LimitError{%v} should match its own sentinel", s)
		}
		if errors.Is(le, ErrBudget) {
			t.Errorf("%v must not be a budget error", s)
		}
	}
	if errors.Is(&LimitError{Sentinel: ErrRowBudget}, ErrMemBudget) {
		t.Error("row budget must not match mem budget")
	}
	var le *LimitError
	err := error(&LimitError{Sentinel: ErrCostBudget, Op: "division"})
	if !errors.As(err, &le) || le.Op != "division" {
		t.Errorf("errors.As should recover the LimitError with its Op, got %+v", le)
	}
}

func TestPollCancellation(t *testing.T) {
	g := Background(Limits{})
	if err := g.Poll("x"); err != nil {
		t.Fatalf("background governor should never trip Poll: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g = New(ctx, Limits{})
	if err := g.Poll("x"); err != nil {
		t.Fatalf("live context should not trip Poll: %v", err)
	}
	cancel()
	err := g.Poll("semijoin/probe")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Op != "semijoin/probe" {
		t.Fatalf("Poll error should carry the operator path, got %v", err)
	}
}

func TestPollDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := New(ctx, Limits{}).Poll("scan")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline: got %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline expiry must not match ErrCanceled")
	}
}

func TestRowBudget(t *testing.T) {
	g := Background(Limits{MaxRows: 100})
	if err := g.CheckRows("product", 100); err != nil {
		t.Fatalf("at the budget is fine: %v", err)
	}
	err := g.CheckRows("product", 101)
	if !errors.Is(err, ErrRowBudget) || !errors.Is(err, ErrBudget) {
		t.Fatalf("over budget: got %v", err)
	}
	if err := Background(Limits{MaxRows: -1}).CheckRows("product", 1<<40); err != nil {
		t.Fatalf("negative MaxRows means unlimited: %v", err)
	}
	if Background(Limits{}).MaxRows() != DefaultMaxRows {
		t.Fatal("zero MaxRows should default")
	}
}

func TestCostBudgetCumulative(t *testing.T) {
	g := Background(Limits{MaxCostUnits: 25})
	if err := g.ChargeCost("unify-semijoin", 25); err != nil {
		t.Fatalf("exactly at budget is fine: %v", err)
	}
	err := g.ChargeCost("division", 1)
	if !errors.Is(err, ErrCostBudget) {
		t.Fatalf("cumulative charge over budget: got %v", err)
	}
	if g.CostSpent() != 26 {
		t.Fatalf("CostSpent = %d, want 26", g.CostSpent())
	}
}

func TestMemBudget(t *testing.T) {
	g := Background(Limits{})
	if err := g.ChargeMem("project", 1<<50); err != nil {
		t.Fatalf("no budget means unlimited accumulation: %v", err)
	}
	g = Background(Limits{MaxMemBytes: 1000})
	if err := g.ChargeMem("scan", 600); err != nil {
		t.Fatalf("under budget: %v", err)
	}
	err := g.ChargeMem("join", 600)
	if !errors.Is(err, ErrMemBudget) || !errors.Is(err, ErrBudget) {
		t.Fatalf("over budget: got %v", err)
	}
	if g.MemCharged() != 1200 {
		t.Fatalf("MemCharged = %d, want 1200", g.MemCharged())
	}
}

func TestNilGovernorIsInert(t *testing.T) {
	var g *Governor
	if err := g.Poll("x"); err != nil {
		t.Fatal("nil governor Poll should be nil")
	}
	if err := g.CheckRows("x", 1<<40); err != nil {
		t.Fatal("nil governor CheckRows should be nil")
	}
	if err := g.ChargeCost("x", 1<<50); err != nil {
		t.Fatal("nil governor ChargeCost should be nil")
	}
	if err := g.ChargeMem("x", 1<<50); err != nil {
		t.Fatal("nil governor ChargeMem should be nil")
	}
	if err := g.Fault(SiteScan); err != nil {
		t.Fatal("nil governor Fault should be nil")
	}
}

func TestInternalError(t *testing.T) {
	func() {
		defer func() {
			if v := recover(); v != nil {
				ie := NewInternalError("worker[2]", v)
				if ie.Op != "worker[2]" || ie.Value != "boom" || len(ie.Stack) == 0 {
					t.Errorf("InternalError lost information: %+v", ie)
				}
				var got *InternalError
				if !errors.As(error(ie), &got) {
					t.Error("errors.As should find *InternalError")
				}
			}
		}()
		panic("boom")
	}()
	// A panic with an error value unwraps to it; any other value to nil.
	refusal := errors.New("refused")
	if ie := NewInternalError("build", refusal); !errors.Is(ie, refusal) {
		t.Errorf("InternalError of a panicked error does not match it: %v", ie)
	}
	if ie := NewInternalError("build", "boom"); ie.Unwrap() != nil {
		t.Errorf("InternalError of a string unwraps to %v", ie.Unwrap())
	}
}

package certsql_test

import (
	"context"
	"errors"
	"testing"

	"certsql"
)

// These pin the context-threading fixes surfaced by the vetcert ctxflow
// rule: EXPLAIN runs its rewrite search and prices the plan under a
// governor, so the planning work must stop with the caller's context —
// previously ExplainPlan always governed itself with
// context.Background(), and the server's prepare handler planned
// abandoned requests to completion.

func TestExplainPlanContextPreCanceled(t *testing.T) {
	db := ctxDB(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExplainPlanContext(ctx, ctxQuery, nil, certsql.Options{})
	if !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("ExplainPlanContext with canceled ctx: err = %v, want ErrCanceled", err)
	}
}

func TestPreparedExplainContextPreCanceled(t *testing.T) {
	db := ctxDB(t, 8)
	stmt, err := db.Prepare(ctxQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stmt.ExplainContext(ctx, nil, certsql.Options{}); !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("ExplainContext with canceled ctx: err = %v, want ErrCanceled", err)
	}
	// The context-free forms still work after the shim split.
	if _, err := stmt.Explain(nil, certsql.Options{}); err != nil {
		t.Fatalf("Explain after shim split: %v", err)
	}
}

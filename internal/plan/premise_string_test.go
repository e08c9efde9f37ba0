package plan_test

import (
	"strings"
	"testing"

	"certsql/internal/plan"
)

// TestPremiseStringUnknownKind pins the rendering fix surfaced by the
// vetcert enumswitch rule: an unrecognized premise kind used to render
// as "null-free", silently mislabeling it in EXPLAIN output.
func TestPremiseStringUnknownKind(t *testing.T) {
	known := []struct {
		p    plan.Premise
		want string
	}{
		{plan.Premise{Kind: plan.PremiseNullFree, Table: "t", Col: 2}, "null-free(t.2)"},
	}
	for _, tc := range known {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	got := plan.Premise{Kind: plan.PremiseKind(99), Table: "t", Col: 1}.String()
	if strings.Contains(got, "null-free") {
		t.Fatalf("unknown premise kind rendered as a known one: %q", got)
	}
	if !strings.Contains(got, "99") {
		t.Fatalf("unknown premise kind should identify itself: %q", got)
	}
}

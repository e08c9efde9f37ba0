package certsql

import (
	"context"
	"reflect"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/plan"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

// TestPlanKeyComplete: every option that changes a compiled plan is in
// the plan-cache key. Each Options field is set in turn by reflection —
// a bool to true, an int to a non-zero value, Guard to a fresh governor
// — and Q1–Q4 are compiled in every mode; where the plan the options
// run differs from the zero options' in its expression or its EXPLAIN
// tree, fingerprintPlanOptions must differ too. An option added later
// is covered without editing this test, and one of a kind it cannot set
// fails it.
func TestPlanKeyComplete(t *testing.T) {
	db := wrap(table.NewDatabase(tpch.Schema()))
	var cases []routeCase
	for _, c := range routeCases(t) {
		if !c.opts.NoOrSplit {
			cases = append(cases, c)
		}
	}
	planned := func(c routeCase, opts Options) string {
		q, err := sql.Parse(c.text)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := db.compilePlan(opts.governor(context.Background()), q, c.params, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		o := pick(pl, pl.Mode)
		return o.Expr.Key() + "\n" + plan.Describe(o.Expr, o.Hints, db.d.Schema, nil).Render()
	}
	base := make([]string, len(cases))
	for i, c := range cases {
		base[i] = planned(c, Options{})
	}
	zeroKey := fingerprintPlanOptions(Options{})
	ft := reflect.TypeOf(Options{})
	for f := 0; f < ft.NumField(); f++ {
		var opts Options
		field := reflect.ValueOf(&opts).Elem().Field(f)
		switch {
		case field.Kind() == reflect.Bool:
			field.SetBool(true)
		case field.CanInt():
			field.SetInt(3 << 20)
		case field.Type() == reflect.TypeOf(&guard.Governor{}):
			field.Set(reflect.ValueOf(guard.New(context.Background(), guard.Limits{})))
		default:
			t.Fatalf("Options.%s: no test value for a %s", ft.Field(f).Name, field.Type())
		}
		keyed := fingerprintPlanOptions(opts) != zeroKey
		for i, c := range cases {
			if !keyed && planned(c, opts) != base[i] {
				t.Errorf("Options.%s changes the plan of %s but not fingerprintPlanOptions", ft.Field(f).Name, c.name)
			}
		}
	}
}

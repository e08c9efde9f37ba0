package difftest

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"certsql/internal/analyze"
	"certsql/internal/compile"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// GoRepro renders a failing case as a ready-to-paste Go test function
// named TestRepro<name>. The emitted test rebuilds the database with the
// internal packages and re-runs the oracle, so a minimized fuzz failure
// turns into a permanent regression test in one paste.
func GoRepro(name string, db *table.Database, sqlText string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// TestRepro%s reproduces a differential-testing failure.\n", name)
	if v := analyzerVerdict(db, sqlText); v != "" {
		fmt.Fprintf(&b, "// Analyzer verdict: %s.\n", v)
	}
	b.WriteString("// Imports: certsql/internal/{difftest,schema,table,value}.\n")
	fmt.Fprintf(&b, "func TestRepro%s(t *testing.T) {\n", name)
	b.WriteString("\tsch := schema.New()\n")
	for _, rn := range db.Schema.Names() {
		rel, _ := db.Schema.Relation(rn)
		b.WriteString("\tsch.MustAdd(&schema.Relation{\n")
		fmt.Fprintf(&b, "\t\tName: %q,\n", rel.Name)
		b.WriteString("\t\tAttrs: []schema.Attribute{\n")
		for _, a := range rel.Attrs {
			fmt.Fprintf(&b, "\t\t\t{Name: %q, Type: %s", a.Name, kindLit(a.Type))
			if a.Nullable {
				b.WriteString(", Nullable: true")
			}
			b.WriteString("},\n")
		}
		b.WriteString("\t\t},\n")
		if rel.HasKey() {
			fmt.Fprintf(&b, "\t\tKey: %s,\n", intsLit(rel.Key))
		}
		b.WriteString("\t})\n")
	}
	b.WriteString("\tdb := table.NewDatabase(sch)\n")
	for _, rn := range db.Schema.Names() {
		tab := db.MustTable(rn)
		if tab.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "\tfor _, r := range []table.Row{\n")
		for _, row := range tab.Rows() {
			b.WriteString("\t\t{")
			for i, v := range row {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(valueLit(v))
			}
			b.WriteString("},\n")
		}
		fmt.Fprintf(&b, "\t} {\n\t\tif err := db.Insert(%q, r); err != nil {\n\t\t\tt.Fatal(err)\n\t\t}\n\t}\n", rn)
	}
	fmt.Fprintf(&b, "\trep := difftest.Check(db, %q, difftest.Options{RequireValid: true})\n", sqlText)
	b.WriteString("\tif rep.Failed() {\n\t\tt.Fatal(rep.Summary())\n\t}\n")
	b.WriteString("}\n")
	src := b.String()
	if strings.Contains(src, "math.") {
		src = strings.Replace(src, "// Imports: ", "// Imports: math, ", 1)
	}
	return src
}

// analyzerVerdict summarizes the static analyzer's view of the case for
// the repro header: "safe", or "hazardous (code, code, …)". Empty when
// the text does not reach the analyzer (parse or compile failure).
func analyzerVerdict(db *table.Database, sqlText string) string {
	q, err := sql.Parse(sqlText)
	if err != nil {
		return ""
	}
	compiled, err := compile.Compile(q, db.Schema, nil)
	if err != nil {
		return ""
	}
	rep := analyze.Plan(compiled.Expr, db.Schema)
	if rep.Safe {
		return "safe"
	}
	codes := map[string]bool{}
	var order []string
	for _, h := range rep.Hazards {
		if !codes[h.Code] {
			codes[h.Code] = true
			order = append(order, h.Code)
		}
	}
	return "hazardous (" + strings.Join(order, ", ") + ")"
}

func kindLit(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "value.KindInt"
	case value.KindFloat:
		return "value.KindFloat"
	case value.KindString:
		return "value.KindString"
	case value.KindBool:
		return "value.KindBool"
	case value.KindDate:
		return "value.KindDate"
	default:
		return fmt.Sprintf("value.Kind(%d)", uint8(k))
	}
}

func intsLit(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[]int{" + strings.Join(parts, ", ") + "}"
}

func valueLit(v value.Value) string {
	if v.IsNull() {
		return fmt.Sprintf("value.Null(%d)", v.NullID())
	}
	switch v.Kind() {
	case value.KindInt:
		return fmt.Sprintf("value.Int(%d)", v.AsInt())
	case value.KindFloat:
		if f := v.AsFloat(); f == 0 && math.Signbit(f) {
			return "value.Float(math.Copysign(0, -1))" // Go constant -0 is +0
		}
		return "value.Float(" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64) + ")"
	case value.KindString:
		return fmt.Sprintf("value.Str(%q)", v.AsString())
	case value.KindBool:
		return fmt.Sprintf("value.Bool(%v)", v.AsBool())
	case value.KindDate:
		return fmt.Sprintf("value.Date(%d)", v.AsDate())
	default:
		return fmt.Sprintf("value.Value{} /* unsupported kind %s */", v.Kind())
	}
}

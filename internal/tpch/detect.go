package tpch

import (
	"slices"
	"strings"

	"certsql/internal/compile"
	"certsql/internal/table"
	"certsql/internal/value"
)

// This file implements the false-positive detection algorithms of
// Section 4 of the paper. Each is bound to the database and the
// parameter bindings once, and then takes one answer tuple and returns
// true when the tuple is provably a false positive (not a certain
// answer), giving a lower bound on the number of false positives. The
// shared idea: a null in a relevant comparison can be valued so as to
// falsify the answer.

// Detector checks one answer tuple of one query, on the database and
// parameters it was bound to, for being a false positive.
type Detector func(answer table.Row) bool

// DetectorFor returns the detector for the given query, to be bound to
// a database and parameter bindings. Binding does the work that does
// not depend on the answer, so bind once per (database, parameters)
// and call the Detector for every answer.
func DetectorFor(q QueryID) func(db *table.Database, params compile.Params) Detector {
	switch q {
	case Q1:
		return DetectQ1
	case Q2:
		return DetectQ2
	case Q3:
		return DetectQ3
	case Q4:
		return DetectQ4
	default:
		panic("tpch: unknown query")
	}
}

// withKey binds an existence test over rows by their column col: the
// returned function reports whether some row r whose col is the
// constant k satisfies p. The rows are found through one hash index,
// which only narrows — sameConst still decides each candidate — and
// which skips null keys, since a null is never the same constant as
// anything. The function is safe for concurrent use.
func withKey(rows []table.Row, col int) func(k value.Value, p func(r table.Row) bool) bool {
	idx := table.BuildIndex(rows, []int{col}, table.NullsSkip, len(rows), nil)
	return func(k value.Value, p func(r table.Row) bool) bool {
		c := idx.Probe(table.Row{k}, []int{0})
		for i, ok := c.Next(); ok; i, ok = c.Next() {
			if r := rows[i]; sameConst(r[col], k) && p(r) {
				return true
			}
		}
		return false
	}
}

// linesOf binds the existence test over the lineitems of one order,
// keyed on l_orderkey.
func linesOf(db *table.Database) func(k value.Value, p func(t table.Row) bool) bool {
	return withKey(db.MustTable("lineitem").Rows(), LOrderKey)
}

// DetectQ1 is Algorithm 1 of the paper. The answer tuple is
// (s_suppkey, o_orderkey). If some other lineitem of the order has an
// unknown supplier or an unknown/late delivery, the NOT EXISTS branch
// can be falsified.
func DetectQ1(db *table.Database, params compile.Params) Detector {
	anyLine := linesOf(db)
	return func(answer table.Row) bool {
		suppKey := answer[0]
		return anyLine(answer[1], func(t table.Row) bool {
			x := t[LSuppKey]
			if !x.IsNull() && sameConst(x, suppKey) {
				return false
			}
			d1, d2 := t[LCommitDate], t[LReceiptDate]
			return d1.IsNull() || d2.IsNull() || laterDate(d2, d1)
		})
	}
}

// DetectQ2 implements the paper's check for Q2: if any order has an
// unknown customer, that customer could be anybody — including the one
// in the answer tuple — so every answer is a false positive.
func DetectQ2(db *table.Database, params compile.Params) Detector {
	unknown := false
	for _, t := range db.MustTable("orders").Rows() {
		if t[OCustKey].IsNull() {
			unknown = true
			break
		}
	}
	return func(table.Row) bool { return unknown }
}

// DetectQ3 implements the paper's check for Q3: an order id k in the
// answer is falsified by a lineitem of order k whose supplier is
// unknown (it may well differ from $supp_key).
func DetectQ3(db *table.Database, params compile.Params) Detector {
	anyLine := linesOf(db)
	return func(answer table.Row) bool {
		return anyLine(answer[0], func(t table.Row) bool { return t[LSuppKey].IsNull() })
	}
}

// DetectQ4 is Algorithm 2 of the paper: an answer order is falsified by
// a lineitem of the order whose part could have the color (unknown part
// or unknown/matching name) and whose supplier could be from the nation
// (unknown supplier, unknown nation key, or the nation itself).
func DetectQ4(db *table.Database, params compile.Params) Detector {
	color, _ := params["color"].(string)
	nation, _ := params["nation"].(string)
	parts := db.MustTable("part").Rows()
	supps := db.MustTable("supplier")
	nations := db.MustTable("nation")
	anyLine, anyPart := linesOf(db), withKey(parts, PPartKey)

	// partOK reports whether lineitem t's part could have the color:
	// some part with t's part key, or any part when that key is unknown.
	// suppOK reports whether t's supplier could be from the nation.
	colored := func(p table.Row) bool {
		name := p[PName]
		return name.IsNull() || strings.Contains(name.AsString(), color)
	}
	partOK := func(t table.Row) bool {
		if t[LPartKey].IsNull() {
			return slices.ContainsFunc(parts, colored)
		}
		return anyPart(t[LPartKey], colored)
	}
	suppOK := func(t table.Row) bool {
		for _, s := range supps.Rows() {
			if !t[LSuppKey].IsNull() && !sameConst(t[LSuppKey], s[SSuppKey]) {
				continue
			}
			x := s[SNationKey]
			if x.IsNull() {
				return true
			}
			for _, n := range nations.Rows() {
				if sameConst(n[NNationKey], x) {
					if n[NName].IsNull() || n[NName].AsString() == nation {
						return true
					}
					break
				}
			}
		}
		return false
	}
	return func(answer table.Row) bool {
		return anyLine(answer[0], func(t table.Row) bool { return partOK(t) && suppOK(t) })
	}
}

// sameConst reports constant equality, false when either side is null.
func sameConst(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return value.ConstEqual(a, b)
}

// laterDate reports a > b on non-null dates.
func laterDate(a, b value.Value) bool {
	c, ok := value.Compare(a, b)
	return ok && c > 0
}

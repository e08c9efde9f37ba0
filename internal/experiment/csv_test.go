package experiment

import (
	"strings"
	"testing"
	"time"

	"certsql/internal/tpch"
)

func TestWriteFigure1CSV(t *testing.T) {
	rows := []Figure1Row{{
		NullRate:  0.02,
		FPPercent: map[tpch.QueryID]float64{tpch.Q1: 12.5, tpch.Q2: 100},
		Samples:   map[tpch.QueryID]int{tpch.Q1: 3, tpch.Q2: 3},
	}}
	var b strings.Builder
	if err := WriteFigure1CSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %q", out)
	}
	if !strings.HasPrefix(lines[0], "null_rate_percent,") {
		t.Errorf("header: %q", lines[0])
	}
	// Q3/Q4 had no samples: empty cells.
	if lines[1] != "2.0,12.50,100.00,," {
		t.Errorf("row: %q", lines[1])
	}
}

func TestWriteFigure4AndTable1CSV(t *testing.T) {
	var b strings.Builder
	err := WriteFigure4CSV(&b, []Figure4Row{{
		NullRate: 0.01,
		RelPerf:  map[tpch.QueryID]float64{tpch.Q1: 1.02, tpch.Q2: 0.001, tpch.Q3: 1, tpch.Q4: 1.8},
		RelCost:  map[tpch.QueryID]float64{tpch.Q1: 1.5, tpch.Q2: 0.25, tpch.Q3: 1, tpch.Q4: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1.0,1.020000,0.001000,1.000000,1.800000,1.500000,0.250000,1.000000,2.000000") {
		t.Errorf("figure4 csv: %q", b.String())
	}

	b.Reset()
	err = WriteTable1CSV(&b, []Table1Row{{
		Multiplier: 3,
		Min:        map[tpch.QueryID]float64{tpch.Q1: 1, tpch.Q2: 0.1, tpch.Q3: 1, tpch.Q4: 2},
		Max:        map[tpch.QueryID]float64{tpch.Q1: 1.1, tpch.Q2: 0.2, tpch.Q3: 1.2, tpch.Q4: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != 5 { // header + 4 queries
		t.Errorf("table1 csv lines = %d:\n%s", got, b.String())
	}
}

func TestWriteLegacyAndRecallCSV(t *testing.T) {
	var b strings.Builder
	err := WriteLegacyCSV(&b, []LegacyPoint{{
		Rows: 64, AdomSize: 100, LegacyCost: 1000, LegacyTime: time.Millisecond,
		PlusCost: 10, PlusTime: time.Microsecond,
	}, {
		Rows: 1024, AdomSize: 2000, LegacyFailed: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "64,100,1000,1000000,false,10,1000") {
		t.Errorf("legacy csv: %q", b.String())
	}
	if !strings.Contains(b.String(), "1024,2000,0,0,true,0,0") {
		t.Errorf("legacy csv failure row: %q", b.String())
	}

	b.Reset()
	err = WriteRecallCSV(&b, []RecallResult{{
		Query: tpch.Q3, CertainReturned: 10, Recalled: 10, FalsePositives: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Q3,10,10,100.00,4,0") {
		t.Errorf("recall csv: %q", b.String())
	}
}

func TestWriteAblationCSV(t *testing.T) {
	var b strings.Builder
	err := WriteAblationCSV(&b, []AblationRow{{
		Query:  tpch.Q4,
		Factor: map[string]float64{"no-orsplit": 110.5},
		Failed: map[string]bool{"no-hashjoin": true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Q4,no-orsplit,110.5000,false") {
		t.Errorf("ablation csv: %q", b.String())
	}
	if !strings.Contains(b.String(), "Q4,no-hashjoin,,true") {
		t.Errorf("ablation csv overbudget row: %q", b.String())
	}
}

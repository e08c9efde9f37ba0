package certain

import (
	"math"
	"testing"

	"certsql/internal/value"
)

// TestDedupeValuesFloatIdentity: the valuation pool is deduplicated by
// Value identity, under which a float is its bits: ±0 stay two pool
// values and a repeated NaN becomes one.
func TestDedupeValuesFloatIdentity(t *testing.T) {
	negZero, nan := value.Float(math.Copysign(0, -1)), value.Float(math.NaN())
	got := dedupeValues([]value.Value{value.Float(0), negZero, nan, value.Float(0), nan, negZero})
	if len(got) != 3 || got[0] != value.Float(0) || got[1] != negZero || got[2] != nan {
		t.Errorf("dedupeValues(0, -0, NaN, 0, NaN, -0) = %v, want [0 -0 NaN]", got)
	}
}

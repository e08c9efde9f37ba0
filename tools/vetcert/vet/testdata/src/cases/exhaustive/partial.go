package exhaustive

import (
	"errors"

	"eng/internal/guard"
	"eng/internal/plan"
)

// Negative cases carried over from the retired tools/astlint tests: a
// vetcert:ignore suppression on the sentinel and enum rules (fam.go has
// one on the family rule), a type switch outside every family, and enum
// constants that appear only in case bodies.

// builtinSwitch: negative — a type switch over builtins is no family.
func builtinSwitch(x any) int {
	switch x.(type) {
	case int:
		return 1
	case string:
		return 2
	}
	return 0
}

// isBudget: suppressed — vetcert:ignore on a sentinel dispatch.
func isBudget(err error) bool {
	// vetcert:ignore sentinelswitch: only the umbrella matters here.
	switch {
	case errors.Is(err, guard.ErrBudget):
		return true
	default:
		return false
	}
}

// isRuleA: suppressed — vetcert:ignore on the strict RuleKind enum.
func isRuleA(k plan.RuleKind) bool {
	// vetcert:ignore enumswitch: only the one kind matters here.
	switch k {
	case plan.RuleA:
		return true
	default:
		return false
	}
}

// ruleFor: negative — returning a kind from a case body is not
// dispatching on it.
func ruleFor(kind int) plan.RuleKind {
	switch kind {
	case 1:
		return plan.RuleB
	default:
		return plan.RuleA
	}
}

var (
	_ = builtinSwitch
	_ = isBudget
	_ = isRuleA
	_ = ruleFor
)

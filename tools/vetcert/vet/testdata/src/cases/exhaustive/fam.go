// Package exhaustive holds the corpus for the three rules migrated
// from astlint: famexhaustive (this file), sentinelswitch
// (sentinel.go), and enumswitch (enum.go). It consumes the algebra
// family from outside its defining package, so the exhaustiveness
// contract binds here.
package exhaustive

import "eng/internal/algebra"

// missingNoDefault: positive — no default and a missing member.
func missingNoDefault(c algebra.Cond) int {
	switch c.(type) { // want "type switch over algebra.Cond has no default and misses: Not"
	case algebra.Cmp:
		return 0
	case algebra.And:
		return 1
	}
	return -1
}

// silentDefault: positive — an empty default swallows unknown nodes.
func silentDefault(c algebra.Cond) int {
	switch c.(type) { // want "type switch over algebra.Cond has a silent .empty. default"
	case algebra.Cmp:
		return 0
	default:
	}
	return -1
}

// loudDefault: negative — a default that does something is an explicit
// rejection policy.
func loudDefault(c algebra.Cond) int {
	switch c.(type) {
	case algebra.Cmp:
		return 0
	default:
		panic("unknown cond")
	}
}

// fullCoverage: negative — every member named, no default needed.
func fullCoverage(c algebra.Cond) int {
	switch c.(type) {
	case algebra.Cmp:
		return 0
	case algebra.And:
		return 1
	case algebra.Not:
		return 2
	}
	return -1
}

// partialWalk: suppressed — vetcert:ignore on the family rule.
func partialWalk(c algebra.Cond) int {
	// vetcert:ignore famexhaustive: only composite shapes matter here
	switch c.(type) {
	case algebra.And:
		return 1
	}
	return 0
}

var (
	_ = missingNoDefault
	_ = silentDefault
	_ = loudDefault
	_ = fullCoverage
	_ = partialWalk
)

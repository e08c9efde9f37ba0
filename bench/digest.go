package main

import (
	"math"

	"certsql/internal/value"
)

// digest is an order-independent fingerprint of a result: the row count
// plus two commutative folds (wrapping sum and xor) of per-row hashes.
// It stands in for "sort the rows, hash the text" at a fraction of the
// cost and without allocating, so checking every timed op does not
// distort what is measured. The per-row hash is the benchmark's own
// (FNV-1a over kind tags and payloads read through Value's exported
// accessors), not the engine's FoldKey, so an engine change to row
// hashing cannot hide a wrong answer from it.
type digest struct {
	Rows int
	Sum  uint64
	Xor  uint64
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

func hashValue(h uint64, v value.Value) uint64 {
	h = fnvByte(h, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
		return fnvUint64(h, uint64(v.NullID()))
	case value.KindInt:
		return fnvUint64(h, uint64(v.AsInt()))
	case value.KindFloat:
		return fnvUint64(h, math.Float64bits(v.AsFloat()))
	case value.KindDate:
		return fnvUint64(h, uint64(v.AsDate()))
	case value.KindBool:
		if v.AsBool() {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	default:
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
		// Terminator: ("ab","c") and ("a","bc") must differ.
		return fnvByte(h, 0xff)
	}
}

func hashRow(row []value.Value) uint64 {
	h := fnvOffset
	for _, v := range row {
		h = hashValue(h, v)
	}
	// Final avalanche so that sum and xor over rows do not cancel on
	// structured inputs such as consecutive keys.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func digestRows(rows [][]value.Value) digest {
	d := digest{Rows: len(rows)}
	for _, r := range rows {
		h := hashRow(r)
		d.Sum += h
		d.Xor ^= h
	}
	return d
}

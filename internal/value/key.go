package value

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a canonical binary encoding of v to b, suitable for
// use as a hash-join or grouping key. Two constants encode identically
// exactly when Compare calls them equal (NaN aside), and nulls are
// distinguished by mark, so that under naive semantics nulls can
// participate in hash joins. A numeric value that is an integer in
// int64 range — an int, or a float such as 2.0 or -0.0 — encodes as
// that int64; every other float as its IEEE bits under a tag of its
// own, which no int shares.
func AppendKey(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		b = append(b, 0)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindInt:
		b = append(b, 1)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindFloat:
		tag, x := floatKey(v.float())
		b = append(b, tag)
		b = binary.BigEndian.AppendUint64(b, x)
	case KindString:
		b = append(b, 2)
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.s)))
		b = append(b, v.s...)
	case KindDate:
		b = append(b, 3)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindBool:
		b = append(b, 4, byte(v.i))
	}
	return b
}

// RowKey builds a canonical string key for an entire row.
func RowKey(row []Value) string {
	b := make([]byte, 0, 16*len(row))
	for _, v := range row {
		b = AppendKey(b, v)
	}
	return string(b)
}

// KeySeed is the 64-bit FNV-1a offset basis, the initial state for
// FoldKey chains.
const KeySeed uint64 = 14695981039346656037

const keyPrime uint64 = 1099511628211

// FoldKey folds v's canonical encoding into the running FNV-1a state h,
// byte for byte, without materializing the encoding: folding a row's
// values in order yields exactly FNV-1a over AppendKey's concatenated
// bytes (a property test pins this). Its caller is shard.HashRow, which
// the benchmark module still times.
func FoldKey(h uint64, v Value) uint64 {
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * keyPrime
		h = fold64(h, uint64(v.i))
	case KindInt:
		h = (h ^ 1) * keyPrime
		h = fold64(h, uint64(v.i))
	case KindFloat:
		tag, x := floatKey(v.float())
		h = (h ^ uint64(tag)) * keyPrime
		h = fold64(h, x)
	case KindString:
		h = (h ^ 2) * keyPrime
		h = fold32(h, uint32(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * keyPrime
		}
	case KindDate:
		h = (h ^ 3) * keyPrime
		h = fold64(h, uint64(v.i))
	case KindBool:
		h = (h ^ 4) * keyPrime
		h = (h ^ uint64(byte(v.i))) * keyPrime
	}
	return h
}

// floatKey is the key encoding's view of a float: the int tag and the
// int64 it equals when it is an integer in int64 range (-0.0 becomes
// 0), else tag 5 and its IEEE bits.
func floatKey(f float64) (tag byte, x uint64) {
	if f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f) {
		return 1, uint64(int64(f))
	}
	return 5, math.Float64bits(f)
}

// fold64 folds x's big-endian bytes into the FNV-1a state h.
func fold64(h, x uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (x >> uint(shift) & 0xff)) * keyPrime
	}
	return h
}

// fold32 folds x's big-endian bytes into the FNV-1a state h.
func fold32(h uint64, x uint32) uint64 {
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ uint64(x>>uint(shift)&0xff)) * keyPrime
	}
	return h
}

package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
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
	tag, x := keyWord(v)
	b = append(b, tag)
	switch v.kind {
	case KindString:
		return append(binary.BigEndian.AppendUint32(b, uint32(len(v.s))), v.s...)
	case KindBool:
		return append(b, byte(x))
	default:
		return binary.BigEndian.AppendUint64(b, x)
	}
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
	tag, x := keyWord(v)
	h = (h ^ uint64(tag)) * keyPrime
	switch v.kind {
	case KindString:
		h = fold32(h, uint32(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * keyPrime
		}
		return h
	case KindBool:
		return (h ^ x) * keyPrime
	default:
		return fold64(h, x)
	}
}

// KeyEqual reports whether a and b have the same AppendKey encoding,
// without encoding either. Encodings are prefix-free, so keys of
// several columns encode alike exactly when each column is KeyEqual.
func KeyEqual(a, b Value) bool {
	if a.kind == b.kind && a.kind != KindFloat {
		return a.i == b.i && a.s == b.s
	}
	ta, xa := keyWord(a)
	tb, xb := keyWord(b)
	return ta == tb && xa == xb
}

// KeyHash folds v into the hash h (from KeySeed) so that KeyEqual values
// fold alike; it hashes strings with a seed drawn per process.
func KeyHash(h uint64, v Value) uint64 {
	tag, x := keyWord(v)
	if v.kind == KindString {
		x = maphash.String(stringSeed, v.s)
	}
	hi, lo := bits.Mul64(h^x, 0x9e3779b97f4a7c15^uint64(tag))
	return hi ^ lo
}

var stringSeed = maphash.MakeSeed()

// keyWord is v's AppendKey tag and payload (a string's bytes aside).
func keyWord(v Value) (tag byte, x uint64) {
	switch v.kind {
	case KindFloat:
		return floatKey(v.float())
	case KindInt:
		return 1, uint64(v.i)
	case KindString:
		return 2, 0
	case KindDate:
		return 3, uint64(v.i)
	case KindBool:
		return 4, uint64(byte(v.i))
	default: // a null's mark
		return 0, uint64(v.i)
	}
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

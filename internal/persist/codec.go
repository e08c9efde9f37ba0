package persist

// codec.go — the binary encoding of engine values shared by segment
// files and the write-ahead log. The encoding is self-describing (a
// kind tag per value), so decoding needs no schema; the schema is
// still consulted afterwards to validate what was read.
//
// Wire format of one value:
//
//	tag byte (the value.Kind)
//	null/int/date  varint payload (null mark, integer, epoch days)
//	bool           one byte (0/1)
//	float          8-byte little-endian IEEE 754 bits
//	string         uvarint length + raw bytes
//
// The format never silently tolerates damage: every decode error names
// the offset at which it stopped trusting the bytes, and the block and
// record layers above this one checksum everything with CRC32C before
// a single value is decoded.

import (
	"encoding/binary"
	"fmt"
	"math"

	"certsql/internal/value"
)

// appendValue appends the wire encoding of v to buf.
func appendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
		return binary.AppendVarint(buf, v.NullID())
	case value.KindInt:
		return binary.AppendVarint(buf, v.AsInt())
	case value.KindDate:
		return binary.AppendVarint(buf, v.AsDate())
	case value.KindBool:
		if v.AsBool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case value.KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case value.KindString:
		s := v.AsString()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	default:
		panic(fmt.Sprintf("persist: encoding value of unknown kind %s", v.Kind()))
	}
}

// decoder reads wire values from a byte slice, tracking its offset so
// errors can be positioned within the enclosing block or record.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.errf("unexpected end of data")
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.errf("bad varint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.errf("bad uvarint")
	}
	d.off += n
	return v, nil
}

// raw decodes a length-prefixed byte string, aliasing d's buffer.
func (d *decoder) raw() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off) {
		return nil, d.errf("declared length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.raw()
	return string(b), err
}

func (d *decoder) done() bool { return d.off >= len(d.buf) }

// val decodes one value.
func (d *decoder) val() (value.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Kind(tag) {
	case value.KindNull:
		id, err := d.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Null(id), nil
	case value.KindInt:
		i, err := d.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case value.KindDate:
		days, err := d.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Date(days), nil
	case value.KindBool:
		b, err := d.byte()
		if err != nil {
			return value.Value{}, err
		}
		switch b {
		case 0:
			return value.Bool(false), nil
		case 1:
			return value.Bool(true), nil
		default:
			return value.Value{}, d.errf("bad bool payload %d", b)
		}
	case value.KindFloat:
		if len(d.buf)-d.off < 8 {
			return value.Value{}, d.errf("short float payload")
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
		return value.Float(math.Float64frombits(bits)), nil
	case value.KindString:
		s, err := d.str()
		if err != nil {
			return value.Value{}, err
		}
		return value.Str(s), nil
	default:
		return value.Value{}, d.errf("unknown value tag %d", tag)
	}
}

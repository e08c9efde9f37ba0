package persist

// segment.go — checksummed columnar segment files, one per table per
// checkpoint. A segment is immutable once published: it is written to
// a temp file, synced, renamed into place, and referenced by name from
// the manifest; it is never appended to or rewritten.
//
// File layout:
//
//	magic "CSG1" (4 bytes)
//	frame 0: header — format uvarint, table name, arity, total rows
//	frame 1..n: row blocks — uvarint row count, then the block's
//	            values column by column (all of column 0, then all of
//	            column 1, …), each value in the codec.go wire format
//
// The columnar in-block layout keeps same-typed bytes adjacent (good
// for scanning and for compression layers a later PR may add) while
// the block granularity keeps decode memory bounded and lets a reader
// verify each CRC32C before trusting a single value. The header's
// total row count lets recovery distinguish a cleanly-ended file from
// one missing tail blocks.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

var segMagic = []byte("CSG1")

const (
	segFormat = 1
	// segBlockRows is the row capacity of one segment block.
	segBlockRows = 2048
)

// writeSegment writes the table's rows as the named segment file in
// dir, via temp file + fsync + rename, and returns the file's size.
// hit is the durability-seam fault hook (never nil; see Store.hit).
// buf is the encoding buffer, carried across the segments of one
// checkpoint: it starts at 64 KiB and is left grown to the largest
// block encoded so far.
func writeSegment(dir, name, relName string, t *table.Table, hit func(guard.Site) error, buf *[]byte) (size int64, err error) {
	tmpPath := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmpPath)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	// On any failure, abandon the temp file: close and remove it. The
	// close error is irrelevant on this path — the bytes are being
	// thrown away — but the primary error must survive. On a panic
	// (the chaos suite's simulated crash) only the handle is released:
	// a killed process leaves its temp file on disk, and recovery must
	// cope with that, so the test harness gets the same debris.
	committed := false
	defer func() {
		if committed {
			return
		}
		// vetcert:ignore durawrite: abort path — the temp file is
		// either removed below or left as crash debris for the sweep.
		f.Close()
		if err != nil {
			if rerr := os.Remove(tmpPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				err = errors.Join(err, rerr)
			}
		}
	}()

	if cap(*buf) == 0 {
		*buf = make([]byte, 0, 1<<16)
	}
	b := append((*buf)[:0], segMagic...)

	// Header frame.
	header := appendUvarint(nil, segFormat)
	header = appendString(header, relName)
	header = appendUvarint(header, uint64(t.Arity()))
	header = appendUvarint(header, uint64(t.Len()))
	b = appendFrame(b, header)
	if _, err := f.Write(b); err != nil {
		return 0, fmt.Errorf("persist: %s: %w", tmpPath, err)
	}
	size = int64(len(b))

	// Row blocks, each framed in place in the one buffer.
	rows := t.Rows()
	for start := 0; start < len(rows); start += segBlockRows {
		if err := hit(guard.SitePersistSegmentWrite); err != nil {
			return 0, err
		}
		end := min(start+segBlockRows, len(rows))
		b = encodeBlock(reserveFrame(b[:0]), rows[start:end], t.Arity())
		frame := sealFrame(b, 0)
		if _, err := f.Write(frame); err != nil {
			return 0, fmt.Errorf("persist: %s: %w", tmpPath, err)
		}
		size += int64(len(frame))
	}
	*buf = b[:0]

	if err := hit(guard.SitePersistFsync); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("persist: sync %s: %w", tmpPath, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("persist: close %s: %w", tmpPath, err)
	}
	committed = true
	// The rename is safe to publish: the file's bytes are synced above.
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	return size, nil
}

// encodeBlock appends the encoding of rows, column by column, to buf.
func encodeBlock(buf []byte, rows []table.Row, arity int) []byte {
	buf = appendUvarint(buf, uint64(len(rows)))
	for col := 0; col < arity; col++ {
		for _, r := range rows {
			buf = appendValue(buf, r[col])
		}
	}
	return buf
}

// segmentData is the decoded content of one segment file.
type segmentData struct {
	Rel   string
	Arity int
	Rows  []table.Row
}

// readSegment reads and verifies a segment file. Every failure is
// positioned: the returned error names the offset of the frame (or
// byte within it) that could not be trusted; the caller names the file.
func readSegment(path string) (*segmentData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		// vetcert:ignore durawrite: read-only handle — close cannot lose data.
		f.Close()
	}()

	fr, ok := newFrameReader(f, segMagic)
	if !ok {
		return nil, errors.New("offset 0: not a segment file (bad magic)")
	}

	header, err := fr.next()
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	hd := &decoder{buf: header}
	format, ferr := hd.uvarint()
	if ferr == nil && format != segFormat {
		ferr = fmt.Errorf("unsupported segment format %d", format)
	}
	rel, rerr := hd.str()
	arity, aerr := hd.uvarint()
	total, terr := hd.uvarint()
	if err := cmp.Or(ferr, rerr, aerr, terr); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if arity == 0 || arity > 1<<16 {
		return nil, fmt.Errorf("header: implausible arity %d", arity)
	}

	seg := &segmentData{Rel: rel, Arity: int(arity), Rows: make([]table.Row, 0, total)}
	for {
		blockOff := fr.off
		payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		rows, err := decodeBlock(payload, int(arity))
		if err != nil {
			return nil, fmt.Errorf("block at offset %d: %w", blockOff, err)
		}
		seg.Rows = append(seg.Rows, rows...)
	}
	if uint64(len(seg.Rows)) != total {
		return nil, fmt.Errorf("row count mismatch: header declares %d rows, file holds %d (missing tail blocks?)",
			total, len(seg.Rows))
	}
	return seg, nil
}

// decodeBlock decodes one column-major row block.
func decodeBlock(payload []byte, arity int) ([]table.Row, error) {
	d := &decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) { // every row carries ≥ arity ≥ 1 bytes
		return nil, d.errf("implausible block row count %d", n)
	}
	rows := make([]table.Row, n)
	backing := make([]value.Value, int(n)*arity)
	for i := range rows {
		rows[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
	}
	for col := 0; col < arity; col++ {
		for i := uint64(0); i < n; i++ {
			v, err := d.val()
			if err != nil {
				return nil, fmt.Errorf("column %d row %d: %w", col, i, err)
			}
			rows[i][col] = v
		}
	}
	if !d.done() {
		return nil, d.errf("%d trailing bytes after the last value", len(payload)-d.off)
	}
	return rows, nil
}

// appendUvarint and appendString are tiny codec helpers kept here to
// keep header code readable.
func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

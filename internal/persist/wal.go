package persist

// wal.go — the write-ahead log of Store.Update deltas. One WAL file
// accompanies each checkpoint: it starts empty when the checkpoint is
// published and accumulates one record per published version after it.
//
// File layout:
//
//	magic "CWL1" (4 bytes)
//	record frames (frame.go framing), each with payload:
//	    uvarint version        the version this record publishes
//	    varint  nextNull       Database.NextNullMark after the update
//	    uvarint opCount
//	    ops:    kind byte (0 insert / 1 replace), table name,
//	            [uvarint row index for replace], uvarint arity, values
//
// A record is written and fsynced BEFORE its version is published to
// in-memory readers, so the on-disk state is always a prefix of the
// acknowledged version sequence plus at most one in-flight record. On
// recovery, replaying the WAL past the checkpoint reproduces that
// prefix; a torn tail frame (the signature of a crash mid-append) is
// truncated away, while a checksum mismatch on an interior record is
// refused as corruption — crashes tear tails, they do not rewrite
// middles.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"certsql/internal/guard"
	"certsql/internal/table"
)

var walMagic = []byte("CWL1")

// encodeWALRecord appends one record payload (unframed) to buf.
func encodeWALRecord(buf []byte, version uint64, nextNull int64, ops []table.Op) []byte {
	buf = appendUvarint(buf, version)
	buf = appendVarint(buf, nextNull)
	buf = appendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		buf = appendString(buf, op.Table)
		if op.Kind == table.OpReplace {
			buf = appendUvarint(buf, uint64(op.Index))
		}
		buf = appendUvarint(buf, uint64(len(op.Row)))
		for _, v := range op.Row {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// walRecord is one decoded WAL record plus its file offset.
type walRecord struct {
	Version  uint64
	NextNull int64
	Ops      []table.Op
	Off      int64
}

// decodeWALRecord decodes one record payload.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	d := &decoder{buf: payload}
	version, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	nextNull, err := d.varint()
	if err != nil {
		return nil, err
	}
	nops, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nops > uint64(len(payload)) {
		return nil, d.errf("implausible op count %d", nops)
	}
	rec := &walRecord{Version: version, NextNull: nextNull, Ops: make([]table.Op, 0, nops)}
	for i := uint64(0); i < nops; i++ {
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		if table.OpKind(kind) != table.OpInsert && table.OpKind(kind) != table.OpReplace {
			return nil, d.errf("op %d: unknown op kind %d", i, kind)
		}
		op := table.Op{Kind: table.OpKind(kind)}
		if op.Table, err = d.str(); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if op.Kind == table.OpReplace {
			idx, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			op.Index = int(idx)
		}
		arity, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if arity > 1<<16 {
			return nil, d.errf("op %d: implausible arity %d", i, arity)
		}
		op.Row = make(table.Row, arity)
		for c := range op.Row {
			if op.Row[c], err = d.val(); err != nil {
				return nil, fmt.Errorf("op %d column %d: %w", i, c, err)
			}
		}
		rec.Ops = append(rec.Ops, op)
	}
	if !d.done() {
		return nil, d.errf("%d trailing bytes after the last op", len(payload)-d.off)
	}
	return rec, nil
}

// walScan is the result of scanning one WAL file.
type walScan struct {
	// Records are the verified records, in file order.
	Records []*walRecord
	// GoodEnd is the offset just past the last verified record — the
	// truncation point when the tail is torn.
	GoodEnd int64
	// Problem describes the frame that stopped the scan (nil when the
	// file ends cleanly). Problem.Kind == frameTorn is the recoverable
	// crash signature; frameCorrupt is damage, including a structurally
	// sound frame whose payload does not decode.
	Problem *frameError
}

// scanWAL reads a WAL file, verifying every frame and decoding every
// record. It never returns an error for in-file damage — that is
// reported in the scan so recovery and fsck can classify it — only for
// I/O-level failures (unreadable file).
func scanWAL(path string) (*walScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer func() {
		// vetcert:ignore durawrite: read-only handle — close cannot lose data.
		f.Close()
	}()

	scan := &walScan{}
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != string(walMagic) {
		scan.Problem = &frameError{Kind: frameCorrupt, Offset: 0, Detail: "not a WAL file (bad magic)"}
		return scan, nil
	}
	fr := newFrameReader(f)
	fr.off = 4
	scan.GoodEnd = 4
	for {
		payload, err := fr.next()
		if errors.Is(err, io.EOF) {
			return scan, nil
		}
		var fe *frameError
		if errors.As(err, &fe) {
			scan.Problem = fe
			return scan, nil
		}
		if err != nil {
			return nil, fmt.Errorf("persist: %s: %w", path, err)
		}
		rec, derr := decodeWALRecord(payload)
		if derr != nil {
			scan.Problem = &frameError{Kind: frameCorrupt, Offset: scan.GoodEnd, Detail: derr.Error()}
			return scan, nil
		}
		rec.Off = scan.GoodEnd
		scan.Records = append(scan.Records, rec)
		scan.GoodEnd = fr.off
	}
}

// createWAL creates a fresh, empty WAL file (magic only, synced) and
// returns it open for appending.
func createWAL(dir, name string, hit func(guard.Site) error) (*os.File, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	// Release the handle if a fault (error or simulated-crash panic)
	// aborts the creation; the file itself is left for the orphan sweep,
	// as it would be after a real crash.
	ok := false
	defer func() {
		if !ok {
			// vetcert:ignore durawrite: abort path — the unpublished file is crash debris.
			f.Close()
		}
	}()
	abort := func(cause error) error {
		if rerr := os.Remove(path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return errors.Join(cause, rerr)
		}
		return cause
	}
	if _, err := f.Write(walMagic); err != nil {
		return nil, abort(fmt.Errorf("persist: %s: %w", path, err))
	}
	if err := hit(guard.SitePersistFsync); err != nil {
		return nil, abort(err)
	}
	if err := f.Sync(); err != nil {
		return nil, abort(fmt.Errorf("persist: sync %s: %w", path, err))
	}
	ok = true
	return f, nil
}

func appendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

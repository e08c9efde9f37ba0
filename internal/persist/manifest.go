package persist

// manifest.go — the MANIFEST file is the single point of publication
// for on-disk state. It names the current checkpoint's segment files,
// the WAL that continues them, the checkpoint version, and the schema
// (as DDL round-trippable through schema.ParseDDL). The file is tiny
// and rewritten atomically: write-temp → fsync → rename → fsync(dir).
// Because segments and WAL files are created and synced BEFORE the
// manifest that references them is renamed into place, a reader that
// trusts the manifest can trust everything it points at — the rename
// is the commit point of a checkpoint.
//
// Layout: one header line "CMF1 <crc32c-hex> <byte-len>\n" followed by
// the JSON body it checksums. The checksum catches torn or bit-rotted
// manifests without relying on JSON parse failures to do so.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/value"
)

// manifestName is the published manifest's file name within a data dir.
const manifestName = "MANIFEST"

const manifestFormat = 1

// manifestSegment references one published segment file.
type manifestSegment struct {
	Table string `json:"table"`
	File  string `json:"file"`
	Rows  int    `json:"rows"`
	Bytes int64  `json:"bytes"`
}

// manifest is the JSON body of the MANIFEST file.
type manifest struct {
	Format int `json:"format"`
	// Version is the checkpoint's published version; WAL records
	// continue from Version+1.
	Version uint64 `json:"version"`
	// NextNull is Database.NextNullMark at the checkpoint.
	NextNull  int64             `json:"next_null"`
	SchemaDDL string            `json:"schema_ddl"`
	Segments  []manifestSegment `json:"segments"`
	// WAL is the file name of the WAL continuing this checkpoint.
	WAL string `json:"wal"`
}

// encodeManifest renders the full file content (header line + body).
func encodeManifest(m *manifest) ([]byte, error) {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("persist: encoding manifest: %w", err)
	}
	body = append(body, '\n')
	sum := crc32.Checksum(body, castagnoli)
	head := fmt.Sprintf("CMF1 %08x %d\n", sum, len(body))
	return append([]byte(head), body...), nil
}

// decodeManifest parses and verifies the full file content.
func decodeManifest(data []byte) (*manifest, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("offset 0: missing header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != "CMF1" {
		return nil, errors.New("offset 0: not a manifest (bad header)")
	}
	sum, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("offset 0: bad header checksum field: %w", err)
	}
	length, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || length < 0 {
		return nil, errors.New("offset 0: bad header length field")
	}
	body := data[nl+1:]
	if int64(len(body)) != length {
		return nil, fmt.Errorf("offset %d: body is %d bytes, header declares %d (torn write?)", nl+1, len(body), length)
	}
	if got := crc32.Checksum(body, castagnoli); got != uint32(sum) {
		return nil, fmt.Errorf("offset %d: body checksum mismatch: stored %08x, computed %08x", nl+1, uint32(sum), got)
	}
	m := &manifest{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("offset %d: %w", nl+1, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("unsupported manifest format %d", m.Format)
	}
	return m, nil
}

// readManifest loads and verifies dir's MANIFEST.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("cannot read manifest: %w", err)
	}
	return decodeManifest(data)
}

// writeManifest atomically publishes m as dir's MANIFEST: the bytes go
// to a temp file which is synced, renamed over MANIFEST, and the
// directory synced so the rename itself is durable.
func writeManifest(dir string, m *manifest, hit func(guard.Site) error) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Release the handle on any abort, including a simulated-crash
	// panic from the fault hook; the temp file stays behind as crash
	// debris for the orphan sweep.
	closed := false
	defer func() {
		if !closed {
			// vetcert:ignore durawrite: abort path — the temp file is crash debris.
			f.Close()
		}
	}()
	abort := func(cause error) error {
		if rerr := os.Remove(tmpPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return errors.Join(cause, rerr)
		}
		return cause
	}
	if _, err := f.Write(data); err != nil {
		return abort(fmt.Errorf("persist: %s: %w", tmpPath, err))
	}
	if err := hit(guard.SitePersistFsync); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("persist: sync %s: %w", tmpPath, err))
	}
	closed = true
	if err := f.Close(); err != nil {
		return abort(fmt.Errorf("persist: close %s: %w", tmpPath, err))
	}
	if err := hit(guard.SitePersistManifestRename); err != nil {
		if rerr := os.Remove(tmpPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return errors.Join(err, rerr)
		}
		return err
	}
	// The commit point: before this rename the old manifest (or none)
	// is published; after it, the new one. Bytes are synced above.
	if err := os.Rename(tmpPath, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so completed renames within it survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := d.Sync(); err != nil {
		// vetcert:ignore durawrite: close after a failed sync — the sync error is reported.
		d.Close()
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("persist: close dir %s: %w", dir, err)
	}
	return nil
}

// renderDDL renders the schema as CREATE TABLE statements that
// schema.ParseDDL parses back to an equivalent schema — the round-trip
// the manifest relies on to reopen a catalog without the original DDL
// file.
func renderDDL(s *schema.Schema) (string, error) {
	var b strings.Builder
	for _, name := range s.Names() {
		rel, _ := s.Relation(name)
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", rel.Name)
		for i, a := range rel.Attrs {
			tn, err := ddlType(a.Type)
			if err != nil {
				return "", fmt.Errorf("persist: relation %q attribute %q: %w", rel.Name, a.Name, err)
			}
			fmt.Fprintf(&b, "  %s %s", a.Name, tn)
			if !a.Nullable {
				b.WriteString(" NOT NULL")
			}
			if i < len(rel.Attrs)-1 || rel.HasKey() {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		if rel.HasKey() {
			names := make([]string, len(rel.Key))
			for i, k := range rel.Key {
				names[i] = rel.Attrs[k].Name
			}
			fmt.Fprintf(&b, "  PRIMARY KEY (%s)\n", strings.Join(names, ", "))
		}
		b.WriteString(");\n")
	}
	return b.String(), nil
}

func ddlType(k value.Kind) (string, error) {
	switch k {
	case value.KindInt:
		return "INT", nil
	case value.KindFloat:
		return "FLOAT", nil
	case value.KindString:
		return "STRING", nil
	case value.KindBool:
		return "BOOLEAN", nil
	case value.KindDate:
		return "DATE", nil
	default:
		return "", fmt.Errorf("type %s has no DDL rendering", k)
	}
}

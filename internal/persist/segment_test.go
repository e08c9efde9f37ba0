package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/tpch"
)

// segmentSHA256 is the SHA-256 of TestSegmentBytesPinned's segment file.
// The on-disk format is a contract with every store already written: a
// change to how segments are encoded must leave these bytes as they are.
const segmentSHA256 = "a49ef9b07cbe29af085ef7431830dc06ee9493c21c5c89d34531c336154ed8eb"

// TestSegmentBytesPinned writes TPC-H lineitem (sf 0.01, seed 3, 2 %
// nulls) as a segment, checks the file's bytes against the recorded
// digest, and bounds the write's allocations at half the file's size:
// the blocks are encoded and framed in one reused buffer.
func TestSegmentBytesPinned(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.02})
	lineitem := db.MustTable("lineitem")
	dir := t.TempDir()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	size, err := writeSegment(dir, "lineitem.seg", "lineitem", lineitem, func(guard.Site) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "lineitem.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != size {
		t.Fatalf("writeSegment reported %d bytes, the file holds %d", size, len(data))
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != segmentSHA256 {
		t.Errorf("segment of %d rows, %d bytes: SHA-256 %s, want %s", lineitem.Len(), size, got, segmentSHA256)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B writing a %d B segment (%.2f×)", alloc, size, float64(alloc)/float64(size))
	if alloc > uint64(size)/2 {
		t.Errorf("allocated %d B writing a %d B segment, more than half its size", alloc, size)
	}
}

// TestSealFrameMatchesAppendFrame: a frame built in place is the bytes
// appendFrame appends, for payload lengths on each side of the length
// prefix's width steps.
func TestSealFrameMatchesAppendFrame(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		want := appendFrame(nil, payload)
		prefix := []byte("CWL1")
		buf := append(reserveFrame(prefix), payload...)
		if got := sealFrame(buf, len(prefix)); !bytes.Equal(got, want) {
			t.Errorf("payload of %d bytes: sealed frame differs from appendFrame's", n)
		}
	}
}

package persist

// frame.go — the checksummed length-prefixed framing shared by segment
// blocks and WAL records:
//
//	frame := uvarint(len(payload)) crc32c(payload, 4 bytes LE) payload
//
// CRC32C (Castagnoli) is hardware-accelerated on every platform the
// engine targets and is the checksum of choice of the storage layers
// this one is modeled on. A frame is only ever trusted after its
// checksum verifies; a frame that cannot be read to completion is
// "torn" — the signature a crash mid-append leaves behind — and is
// reported distinctly from a checksum mismatch so recovery can
// truncate the one and refuse the other.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload bounds a single frame. Segment blocks hold ~2k rows
// and WAL records one update's delta; anything past this is damage
// (e.g. a bit flip in the length prefix), not data.
const maxFramePayload = 1 << 30

// appendFrame appends the framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// frameHeaderMax is the most bytes a frame header takes: the payload
// length as a uvarint, then the checksum.
const frameHeaderMax = binary.MaxVarintLen64 + 4

// reserveFrame and sealFrame build a frame in one buffer, without
// copying its payload: reserveFrame appends room for the header, the
// payload is appended after that room, and sealFrame writes the
// header, whose length is known only then, against the payload and
// returns the frame — the bytes appendFrame would append.
func reserveFrame(buf []byte) []byte {
	return append(buf, make([]byte, frameHeaderMax)...)
}

// sealFrame closes the frame whose room reserveFrame appended at start.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeaderMax:]
	var hdr [frameHeaderMax]byte
	h := binary.AppendUvarint(hdr[:0], uint64(len(payload)))
	h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(payload, castagnoli))
	at := start + frameHeaderMax - len(h)
	copy(buf[at:], h)
	return buf[at:]
}

// frameErrKind distinguishes how reading a frame failed.
type frameErrKind uint8

const (
	// frameTorn: the file ended mid-frame — the shape of a crashed
	// append. Recoverable by truncating at the frame's start.
	frameTorn frameErrKind = iota
	// frameCorrupt: the frame is structurally present but its checksum
	// or length prefix is wrong — bit rot or an overwrite, never a
	// clean crash. Not recoverable.
	frameCorrupt
)

// frameError is a positioned framing failure.
type frameError struct {
	Kind   frameErrKind
	Offset int64 // file offset of the frame's first byte
	Detail string
}

func (e *frameError) Error() string {
	kind := "torn frame"
	if e.Kind == frameCorrupt {
		kind = "corrupt frame"
	}
	return fmt.Sprintf("offset %d: %s: %s", e.Offset, kind, e.Detail)
}

// frameReader reads frames sequentially, tracking the byte offset of
// every frame so failures are reported as file:offset.
type frameReader struct {
	r   *bufio.Reader
	off int64
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// readByte reads one byte, advancing the offset.
func (fr *frameReader) readByte() (byte, error) {
	b, err := fr.r.ReadByte()
	if err == nil {
		fr.off++
	}
	return b, err
}

// next reads one frame. It returns io.EOF (and no frame) at a clean
// end of file; any other failure is a *frameError positioned at the
// frame's start.
func (fr *frameReader) next() ([]byte, error) {
	start := fr.off
	// Length prefix. A clean EOF before the first byte ends the file;
	// an EOF mid-varint is a torn frame.
	first := true
	var length uint64
	var shift uint
	for {
		b, err := fr.readByte()
		if err != nil {
			if first && errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, &frameError{Kind: frameTorn, Offset: start, Detail: "file ends inside the length prefix"}
		}
		first = false
		if shift >= 64 {
			return nil, &frameError{Kind: frameCorrupt, Offset: start, Detail: "length prefix overflows"}
		}
		length |= uint64(b&0x7f) << shift
		shift += 7
		if b&0x80 == 0 {
			break
		}
	}
	if length > maxFramePayload {
		return nil, &frameError{Kind: frameCorrupt, Offset: start, Detail: fmt.Sprintf("implausible payload length %d", length)}
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(fr.r, crcBuf[:]); err != nil {
		return nil, &frameError{Kind: frameTorn, Offset: start, Detail: "file ends inside the checksum"}
	}
	fr.off += 4
	payload := make([]byte, length)
	n, err := io.ReadFull(fr.r, payload)
	fr.off += int64(n)
	if err != nil {
		return nil, &frameError{Kind: frameTorn, Offset: start,
			Detail: fmt.Sprintf("file ends inside the payload (%d of %d bytes)", n, length)}
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &frameError{Kind: frameCorrupt, Offset: start,
			Detail: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got)}
	}
	return payload, nil
}

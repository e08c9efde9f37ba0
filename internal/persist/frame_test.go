package persist

import (
	"errors"
	"io"
	"testing"
)

// failingReader yields data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameReadErrorIsNotTorn: a frame whose payload cannot be read to
// its end is torn only when the file ends there. Recovery truncates the
// WAL at a torn frame, so a read error such as EIO halfway through an
// interior record must make the frame corrupt, which recovery refuses,
// or the acknowledged records after it would be dropped.
func TestFrameReadErrorIsNotTorn(t *testing.T) {
	magic := []byte("CWL1")
	frame := appendFrame(nil, make([]byte, 100))
	half := append(append([]byte{}, magic...), frame[:len(frame)-50]...)
	for _, c := range []struct {
		err  error
		want frameErrKind
	}{
		{errors.New("input/output error"), frameCorrupt},
		{io.EOF, frameTorn},
	} {
		fr, ok := newFrameReader(&failingReader{data: half, err: c.err}, magic)
		if !ok {
			t.Fatal("magic not recognised")
		}
		_, err := fr.next()
		var fe *frameError
		if !errors.As(err, &fe) || fe.Kind != c.want || fe.Offset != int64(len(magic)) {
			t.Errorf("read failing with %v mid-payload: got %v, want a frame error of kind %d at offset %d",
				c.err, err, c.want, len(magic))
		}
	}
}

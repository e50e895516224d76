package nsp

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// Serial is an opaque buffer holding the serialized form of an object,
// optionally flate-compressed — Nsp's `serial` class. A Serial is itself an
// Object, so serials can be nested inside lists/hashes and shipped over the
// message-passing layer like any other value.
type Serial struct {
	// Compressed reports whether Data holds a flate stream.
	Compressed bool
	// Data is the (possibly compressed) serialized byte stream.
	Data []byte
}

// Kind implements Object.
func (s *Serial) Kind() Kind { return KindSerial }

// Len returns the byte length of the buffer.
func (s *Serial) Len() int { return len(s.Data) }

// String mimics Nsp's "<302-bytes> serial" display.
func (s *Serial) String() string {
	if s.Compressed {
		return fmt.Sprintf("<%d-bytes> serial (compressed)", len(s.Data))
	}
	return fmt.Sprintf("<%d-bytes> serial", len(s.Data))
}

// Equal implements Object.
func (s *Serial) Equal(o Object) bool {
	t, ok := o.(*Serial)
	return ok && s.Compressed == t.Compressed && bytes.Equal(s.Data, t.Data)
}

// Serialize converts any object into a Serial buffer using the binary
// format shared with Save. It is Nsp's `serialize` primitive.
func Serialize(o Object) (*Serial, error) {
	data, err := encodeStream(o)
	if err != nil {
		return nil, err
	}
	return &Serial{Data: data}, nil
}

// Unserialize decodes the buffer back into an object, transparently
// handling compressed serials as Nsp's `unserialize` method does.
func (s *Serial) Unserialize() (Object, error) {
	data, err := s.inflated()
	if err != nil {
		return nil, err
	}
	return decodeStream(data)
}

// maxInflate bounds what a compressed serial may inflate to: 64 MiB, the
// most a single mpi frame could have carried raw. flate reaches ratios
// near 1000:1, and without a bound a half-megabyte frame of compressed
// zeros made its receiver allocate gigabytes before the stream was even
// looked at.
const maxInflate = 64 << 20

// inflated returns the serialized stream: Data itself, or what it
// decompresses to, which past maxInflate bytes is a malformed stream.
func (s *Serial) inflated() ([]byte, error) {
	if !s.Compressed {
		return s.Data, nil
	}
	r := flate.NewReader(bytes.NewReader(s.Data))
	raw, err := io.ReadAll(io.LimitReader(r, maxInflate+1))
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("nsp: decompress serial: %w", err)
	}
	if len(raw) > maxInflate {
		return nil, badStream("compressed serial inflates past %d bytes", maxInflate)
	}
	return raw, nil
}

// Compress returns a compressed copy of the serial (no-op if already
// compressed), mirroring the `compress` method added to Nsp.
func (s *Serial) Compress() (*Serial, error) {
	if s.Compressed {
		return s, nil
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(s.Data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Serial{Compressed: true, Data: buf.Bytes()}, nil
}

// Uncompress returns an uncompressed copy of the serial (no-op if already
// raw).
func (s *Serial) Uncompress() (*Serial, error) {
	if !s.Compressed {
		return s, nil
	}
	raw, err := s.inflated()
	if err != nil {
		return nil, err
	}
	return &Serial{Data: raw}, nil
}

package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds a frame payload (64 MiB), protecting against corrupt
// length headers. An oversized length is an ErrProtocol: the stream can
// no longer be trusted to be frame-aligned and the connection must be
// closed.
const maxFrame = 64 << 20

// maxRetainedBuf caps how much scratch memory a codec keeps between
// frames; a single outsized frame gets a one-shot buffer instead of
// pinning it forever.
const maxRetainedBuf = 1 << 20

// frameCodec encodes and decodes wire frames for one negotiated
// protocol version. The v1 and v2 frame layouts are identical —
// dest(int32) src(int32) tag(int32) len(uint32) payload — but the codec
// owns the version explicitly so a future layout change is a new codec,
// not a silent drift, and so the receive path can reuse one scratch
// buffer per connection instead of allocating per frame.
//
// A codec is owned by a single goroutine (or externally serialized, as
// the write side of a conn is by its mutex); it is not safe for
// unsynchronized concurrent use.
type frameCodec struct {
	ver     int
	scratch []byte
	// hdr is the header staging area. Living on the long-lived codec
	// rather than the stack keeps it from escaping per call through the
	// io.Reader/io.Writer interface, making both paths allocation-free.
	hdr [16]byte
}

func newFrameCodec(ver int) *frameCodec { return &frameCodec{ver: ver} }

// readFrame reads one frame. The returned payload aliases the codec's
// scratch buffer and is valid only until the next readFrame call;
// retain() it before handing it to anything that outlives the loop
// iteration.
func (fc *frameCodec) readFrame(r io.Reader) (dest, src, tag int, payload []byte, err error) {
	if _, err = io.ReadFull(r, fc.hdr[:]); err != nil {
		return
	}
	dest = int(int32(binary.BigEndian.Uint32(fc.hdr[0:])))
	src = int(int32(binary.BigEndian.Uint32(fc.hdr[4:])))
	tag = int(int32(binary.BigEndian.Uint32(fc.hdr[8:])))
	n := binary.BigEndian.Uint32(fc.hdr[12:])
	if n > maxFrame {
		err = fmt.Errorf("%w: frame of %d bytes exceeds %d-byte limit", ErrProtocol, n, maxFrame)
		return
	}
	size := int(n)
	if size <= cap(fc.scratch) {
		payload = fc.scratch[:size]
	} else {
		// A length is a claim until its bytes arrive. Past maxRetainedBuf
		// a one-shot buffer doubles as it fills, so sixteen bytes of
		// header cost what follows them, not maxFrame.
		payload = make([]byte, min(size, maxRetainedBuf))
		if size <= maxRetainedBuf {
			fc.scratch = payload
		}
	}
	_, err = io.ReadFull(r, payload)
	for err == nil && len(payload) < size {
		more := min(size-len(payload), len(payload))
		payload = append(payload, make([]byte, more)...)
		_, err = io.ReadFull(r, payload[len(payload)-more:])
	}
	return
}

// retain copies a payload out of the scratch buffer, for frames whose
// bytes escape the read loop (mailbox deliveries). Frames that are
// forwarded or decoded in place skip the copy — that is the pooling
// win.
func (fc *frameCodec) retain(payload []byte) []byte {
	out := make([]byte, len(payload))
	copy(out, payload)
	return out
}

// writeFrame encodes one frame. It allocates nothing; the header is
// staged in the codec and the payload is written through.
func (fc *frameCodec) writeFrame(w io.Writer, dest, src, tag int, payload []byte) error {
	binary.BigEndian.PutUint32(fc.hdr[0:], uint32(int32(dest)))
	binary.BigEndian.PutUint32(fc.hdr[4:], uint32(int32(src)))
	binary.BigEndian.PutUint32(fc.hdr[8:], uint32(int32(tag)))
	binary.BigEndian.PutUint32(fc.hdr[12:], uint32(len(payload)))
	if _, err := w.Write(fc.hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFrame is the stateless form used where no codec exists yet (the
// pre-negotiation handshake).
func writeFrame(w io.Writer, dest, src, tag int, payload []byte) error {
	return (&frameCodec{ver: ProtoV1}).writeFrame(w, dest, src, tag, payload)
}

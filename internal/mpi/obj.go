package mpi

import (
	"fmt"

	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// Buf is a packing buffer, the analogue of the mpibuf object created at
// Nsp level and handed to MPI_Recv. Its contents are a serialized nsp
// object stream.
type Buf struct {
	// Data holds the packed bytes.
	Data []byte
}

// NewBuf returns a receive buffer of the given capacity, like
// mpibuf_create(elems).
func NewBuf(n int) *Buf { return &Buf{Data: make([]byte, n)} }

// Pack serializes an object into a packing buffer (MPI_Pack).
func Pack(o nsp.Object) (*Buf, error) {
	s, err := nsp.Serialize(o)
	if err != nil {
		return nil, fmt.Errorf("mpi: pack: %w", err)
	}
	return &Buf{Data: s.Data}, nil
}

// Unpack decodes the buffer back into an object (MPI_Unpack).
func (b *Buf) Unpack() (nsp.Object, error) {
	o, err := nsp.SLoadBytes(b.Data).Unserialize()
	if err != nil {
		return nil, fmt.Errorf("mpi: unpack: %w", err)
	}
	return o, nil
}

// ObjRefComm is implemented by communicators whose ranks share one
// address space (LocalComm) and can therefore pass nsp objects by
// reference, skipping the serialize/deserialize round trip entirely.
// SendObj and RecvObj use the fast path transparently when the
// communicator offers it.
//
// Reference passing keeps the ownership contract of a real wire send:
// the sender must not mutate the object after SendObjRef returns, and
// the receiver owns what RecvObjRef hands back. By-reference messages
// never touch the byte layer, so they are invisible to the
// mpi.bytes_*/mpi.msgs_* counters.
type ObjRefComm interface {
	Comm
	// SendObjRef delivers o to dest by reference.
	SendObjRef(o nsp.Object, dest, tag int) error
	// RecvObjRef receives the next matching message, whether it was sent
	// by reference (returned as-is, Serials unsealed) or as bytes
	// (decoded like RecvObj).
	RecvObjRef(source, tag int) (nsp.Object, Status, error)
}

// SendObj transmits any nsp object by transparent serialization, the
// MPI_Send_Obj primitive. Sending a *nsp.Serial ships its bytes without a
// second encoding pass, which is what makes the serialized-load strategy
// cheap on the master. On an ObjRefComm the object travels by reference
// and is never serialized at all.
func SendObj(c Comm, o nsp.Object, dest, tag int) error {
	if rc, ok := c.(ObjRefComm); ok {
		return rc.SendObjRef(o, dest, tag)
	}
	reg := telemetry.Process()
	if s, ok := o.(*nsp.Serial); ok && !s.Compressed {
		// The serial already holds a full stream: ship it as-is.
		countMsg(reg, c.Rank(), "sent", len(s.Data))
		return c.Send(s.Data, dest, tag)
	}
	start := reg.Now()
	s, err := nsp.Serialize(o)
	if err != nil {
		return fmt.Errorf("mpi: send obj: %w", err)
	}
	if reg != nil {
		reg.Observe("mpi.pack_seconds", reg.Now()-start)
		countMsg(reg, c.Rank(), "sent", len(s.Data))
	}
	return c.Send(s.Data, dest, tag)
}

// decodeObjStream decodes a serialized stream and unseals it, the
// receive-side convention shared by RecvObj and the byte fallback of
// RecvObjRef implementations.
func decodeObjStream(data []byte) (nsp.Object, error) {
	o, err := nsp.SLoadBytes(data).Unserialize()
	if err != nil {
		return nil, fmt.Errorf("mpi: recv obj: %w", err)
	}
	return unseal(o)
}

// unseal opens one top-level Serial (compressed or not) into the value
// it wraps, as Nsp's MPI_Recv_Obj does; any other object is itself.
func unseal(o nsp.Object) (nsp.Object, error) {
	s, ok := o.(*nsp.Serial)
	if !ok {
		return o, nil
	}
	inner, err := s.Unserialize()
	if err != nil {
		return nil, fmt.Errorf("mpi: recv obj unseal: %w", err)
	}
	return inner, nil
}

// RecvObj receives an object sent by SendObj (MPI_Recv_Obj). As in Nsp,
// if the transmitted object is itself a Serial (compressed or not), it is
// unsealed once so the caller gets the wrapped value directly. On an
// ObjRefComm, by-reference messages come back without a decode pass.
func RecvObj(c Comm, source, tag int) (nsp.Object, Status, error) {
	if rc, ok := c.(ObjRefComm); ok {
		return rc.RecvObjRef(source, tag)
	}
	data, st, err := c.Recv(source, tag)
	if err != nil {
		return nil, st, err
	}
	reg := telemetry.Process()
	countMsg(reg, c.Rank(), "recv", len(data))
	start := reg.Now()
	o, err := decodeObjStream(data)
	if err != nil {
		return nil, st, err
	}
	if reg != nil {
		reg.Observe("mpi.unpack_seconds", reg.Now()-start)
	}
	return o, st, nil
}
